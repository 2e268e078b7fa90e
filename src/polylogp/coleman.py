"""p-adic polylogarithms on the locus |z| = |z-1| = 1 and their congruences.

Three computation routes, kept deliberately separate so they can check each
other:

* the measure Riemann sum for the Frobenius-corrected polylogarithm
  Li_n(z) - Li_n(z^p)/p^n  (integral of x^{-n} against the cell measure
  z^a / (1 - z^{p^m}), certified error p^-m),
* the closed finite sum for Li_n at a Teichmuller point, and
* the disc expansion of p^{-n} Li_n(alpha(1+pw)) as a series in w, built by
  integrating the weight-(n-1) series against 1/(1+pw).

On top sit the log-weighted combinations L_n and F_n, the operator
D = z(1-z) d/dz applied to F_n in closed form, and the verification
drivers that compare everything against finite-field arithmetic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .finite_poly import (FpkElement, frobenius, li_finite, li_finite_walk, poly_frobenius,
                          poly_inverse, poly_mul, sigma, unit_powers, walk_index)
from .identities import a_coeffs
from .padic_core import (
    UnramifiedCtx,
    WittApprox,
    add_states,
    mul_states,
    padic_log,
    residue,
    teichmuller,
    teichmuller_powers,
)
from .power_series import TruncSeries
from .report import sample_w, sample_zbar
from .rng import SplitMix64
from . import report as report_mod


def default_precision(n: int) -> int:
    """Working digits A for weight-n verification: n plus guard digits."""
    return n + 4


def default_riemann_m(n: int) -> int:
    """Riemann-sum modulus: certified error p^-m with m = n + 2."""
    return n + 2


def default_series_order(p: int, n: int, target: int) -> int:
    # tail slope of the disc series is 1 - 1/(p-1); solve for >= target digits
    need = Fraction((target + n) * (p - 1), p - 2)
    return int(math.ceil(need)) + 2


@dataclass(frozen=True)
class XPoint:
    """A point z = alpha (1 + p w) with alpha a root of unity, zbar not 0 or 1."""

    ctx: UnramifiedCtx
    z: WittApprox
    alpha: WittApprox
    w: WittApprox
    zbar: FpkElement

    @staticmethod
    def from_alpha_w(ctx: UnramifiedCtx, alpha: WittApprox, w: WittApprox) -> "XPoint":
        zbar = residue(alpha)
        if zbar.is_zero() or zbar.is_one():
            raise ValueError("residue must avoid 0 and 1 on this locus")
        if not w.exact and w.min_valuation < 0:
            raise ValueError("the disc coordinate w must be integral")
        z = alpha * (ctx.one() + w.shift(1))
        return XPoint(ctx, z, alpha, w, zbar)

    def inverse_point(self) -> "XPoint":
        """The point 1/z, with Teichmuller part alpha^{-1}."""
        ctx = self.ctx
        t = (ctx.one() + self.w.shift(1)).inv()
        w_inv = (t - ctx.one()).shift(-1)
        return XPoint.from_alpha_w(ctx, self.alpha.inv(), w_inv)


@dataclass
class MeasureBase:
    """The weight-free part of the measure sums over one Frobenius orbit
    (``PolylogEvaluator._measure_base``); H_e is summed on first use."""

    orbit: list  # z, phi(z), ..., phi^{k-1}(z)
    z_rows: list  # the coordinate rows of z^{a0}, 0 < a0 < p
    G: list
    inv_factor: WittApprox  # 1/(1 - z^{p^m})
    H: dict


class PolylogEvaluator:
    """Caches and drives polylogarithm computation for one context.

    ``riemann_m`` fixes the measure-sum modulus (certified error p^-m) and
    ``series_order`` the disc-series truncation M.  ``max_weight`` only sets
    their defaults, enough for weight ``max_weight``: each weight of a
    measure sum is summed when it is first read.
    """

    def __init__(
        self,
        ctx: UnramifiedCtx,
        riemann_m: int | None = None,
        max_weight: int = 4,
        series_order: int | None = None,
        trace=None,
    ):
        if riemann_m is None:
            riemann_m = default_riemann_m(max_weight)
        if riemann_m < 1:
            raise ValueError("riemann modulus must be >= 1")
        if series_order is None:
            series_order = default_series_order(ctx.p, max_weight, ctx.A)
        if series_order < 1:
            raise ValueError("series order must be >= 1")
        self.ctx = ctx
        self.m = riemann_m
        self.series_order = series_order
        self.trace = trace
        self._teich: dict = {}
        self._lip: dict = {}
        self._h_scalars: dict = {}
        self._li_teich: dict = {}
        self._litilde: dict = {}
        self._g: dict = {}
        self._li_at: dict = {}
        self._log_at: dict = {}

    # -- Teichmuller points ---------------------------------------------------

    def teich(self, zbar: FpkElement) -> WittApprox:
        key = zbar.coeffs
        if key not in self._teich:
            self._teich[key] = teichmuller(self.ctx, zbar)
        return self._teich[key]

    def teich_walk(self) -> list:
        """The lifts omega(g)^i of ``teichmuller_powers``, entered into the
        ``teich`` memo under their residues g^i."""
        lifts = teichmuller_powers(self.ctx)
        self._teich.update(zip(unit_powers(self.ctx.p, self.ctx.k), lifts))
        return lifts

    def xpoint(self, zbar: FpkElement, w: WittApprox) -> XPoint:
        return XPoint.from_alpha_w(self.ctx, self.teich(zbar), w)

    # -- measure Riemann sums ---------------------------------------------------

    def li_p_riemann(self, z: WittApprox, n: int) -> WittApprox:
        """Riemann sum for the Frobenius-corrected weight-n polylogarithm.

        The integrand x^{-n} is constant mod p^m on each cell and the measure
        takes integral values here, so the certified absolute error is p^-m.

        One weight-free build (``_measure_base``) serves the Frobenius orbit
        of z, and a weight read at any conjugate is summed once, at z, then
        memoized as phi^i of that value at phi^i(z), i < k.  That is the
        value a fresh evaluation at phi^i(z) gives, field for field.  The sum
        sum_{p∤a<p^m} a^{-n} z^a / (1 - z^{p^m}) has its scalars a^{-n} in Z_p,
        which phi fixes, and every step is a ring operation that commutes
        with phi: ``poly_mul``, ``poly_frobenius`` and ``poly_inverse`` (so
        z^a, 1 - z^{p^m} and its inverse), integer combinations, and
        reduction mod p^r.  And phi(z) mod p^prec depends on z mod p^prec
        only, so S(phi z) and phi(S(z)) agree mod p^prec; ``make`` and
        ``cap_abs`` normalize by valuations, which phi preserves, then cap
        at min(m, prec) <= prec.
        """
        if n < 0:
            raise ValueError("weight must be >= 0")
        key = (z.scale, z.coeffs, z.prec)
        if key not in self._lip:  # a new orbit
            base = self._measure_base(z)
            for zi in base.orbit:
                self._lip[(zi.scale, zi.coeffs, zi.prec)] = (base, {})
        base, values = self._lip[key]
        if n not in values:
            value = self.ctx.make(0, self._weight_sum(base, n), self.ctx.A) * base.inv_factor
            value = value.cap_abs(min(self.m, z.prec))
            for i, zi in enumerate(base.orbit):  # S(phi^i z) = phi^i S(z)
                if i:
                    value = value.frobenius()
                self._lip[(zi.scale, zi.coeffs, zi.prec)][1][n] = value
        return values[n]

    def _measure_base(self, z: WittApprox) -> MeasureBase:
        """The weight-free part of S_n = sum_{p∤a<p^m} a^{-n} z^a mod p^min(m,A).

        Writing a = a0 + p t (0 < a0 < p, 0 <= t < T = p^{m-1}),
        (a0 + pt)^{-n} = a0^{-n} sum_{j<m} C(-n,j) (pt/a0)^j exactly mod p^m,
        so S_n = sum_j C(-n,j) p^j G_j H_{n+j} (``_weight_sum``) with
        G_j = sum_{t<T} t^j y^t (y = z^p, shared by every weight) and
        H_e = sum_{a0<p} a0^{-e} z^{a0}.  As 1 - y is a unit on the locus,
        the G_j follow from the telescoping recurrence
        (1-y) G_j = sum_{i<j} C(j,i)(-1)^{j-i+1} G_i + (-1)^j - (T-1)^j y^T,
        where y^T = z^{p^m}, and G_0 = prod_{d<m-1} sum_{s<p} y^{s p^d}, one
        base-p digit of t at a time.  Cost O(p m + m^2) ring ops.

        At the evaluator's Teichmuller lift z of a residue, a root of unity,
        phi(z) = z^p (``WittApprox.frobenius``), and phi is a ring
        automorphism of W/p^A, so y^{s p^d} = phi^{d+1}(z^s), each digit's
        block is phi^{d+1}(B) with B = sum_{s<p} z^s, and y^T = phi^m(z).
        Both ways give the same element of W/p^A, so the same vector, but
        G_0 then costs max(m-2, 0) products and m Frobenius maps
        (``poly_frobenius``, O(k^2) each) instead of 1 + (m-1)(p+1) products.
        """
        ctx = self.ctx
        if z.scale != 0:
            raise ValueError("measure requires a unit z")
        zbar = residue(z)
        if zbar.is_zero() or zbar.is_one():
            raise ValueError("measure requires |z| = |z-1| = 1")
        p, pA, k, h, m = ctx.p, ctx.pA, ctx.k, ctx.hbar, self.m
        one = (1,) + (0,) * (k - 1)
        zvec = z.coeffs
        z_pows = [zvec]  # z^{a0} for 0 < a0 < p
        for _ in range(p - 2):
            z_pows.append(poly_mul(z_pows[-1], zvec, h, pA))
        if self._teich.get(zbar.coeffs) == z:  # a root of unity
            b = tuple([sum(col) % pA for col in zip(one, *z_pows)])
            blocks = [poly_frobenius(b, d + 1, h, p, ctx.A) for d in range(m - 1)]
            z_top = poly_frobenius(zvec, m, h, p, ctx.A)
        else:
            blocks, y_s = [], poly_mul(z_pows[-1], zvec, h, pA)  # y_s = y^{p^d}, y = z^p
            for _ in range(m - 1):
                block, term = list(one), one
                for _ in range(p - 1):
                    term = poly_mul(term, y_s, h, pA)
                    block = [b + c for b, c in zip(block, term)]
                blocks.append(tuple([c % pA for c in block]))
                y_s = poly_mul(term, y_s, h, pA)
            z_top = y_s  # y^T = z^{p^m}
        g0 = blocks[0] if blocks else one
        for block in blocks[1:]:
            g0 = poly_mul(g0, block, h, pA)
        one_minus_top = ((1 - z_top[0]) % pA,) + tuple(-c % pA for c in z_top[1:])
        inv_cell = poly_inverse(one_minus_top, h, p, ctx.A)
        # (1 - y) G_0 = 1 - y^T
        inv_one_minus_y = poly_mul(g0, inv_cell, h, pA)
        T = p ** (m - 1)
        J = min(m, ctx.A)  # p^j vanishes mod p^A from j = A on
        G = [g0]
        for j in range(1, J):
            rhs = [(-1) ** j] + [0] * (k - 1)
            for i, g in enumerate(G):
                c = math.comb(j, i) * (-1) ** (j - i + 1)
                for r in range(k):
                    rhs[r] += c * g[r]
            top = pow(T - 1, j, pA)
            for r in range(k):
                rhs[r] -= top * z_top[r]
            G.append(poly_mul(tuple(c % pA for c in rhs), inv_one_minus_y, h, pA))
        orbit = [z]
        for _ in range(k - 1):
            orbit.append(orbit[-1].frobenius())
        return MeasureBase(orbit, list(zip(*z_pows)), G, ctx.make(0, inv_cell, z.prec), {})

    def _weight_sum(self, base: MeasureBase, n: int) -> tuple:
        """S_n = sum_{j<J} C(-n,j) p^j G_j H_{n+j} mod p^A, J = min(m, A), as a
        coefficient vector: J products on the weight-free ``base``."""
        ctx = self.ctx
        p, pA, k, h = ctx.p, ctx.pA, ctx.k, ctx.hbar
        acc = [0] * k
        binom = 1  # C(-n, j)
        for j, g in enumerate(base.G if n else base.G[:1]):  # C(0, j) = 0 for j > 0
            e = n + j
            if e not in base.H:
                if e not in self._h_scalars:
                    self._h_scalars[e] = [pow(a0, -e, pA) for a0 in range(1, p)]
                scalars = self._h_scalars[e]
                base.H[e] = tuple([sum(map(mul, scalars, row)) % pA for row in base.z_rows])
            c = binom * p**j
            prod = poly_mul(g, base.H[e], h, pA)
            for r in range(k):
                acc[r] += c * prod[r]
            binom = binom * (-n - j) // (j + 1)
        return tuple(c % pA for c in acc)

    # -- Teichmuller closed formula ---------------------------------------------

    def li_n_teich(self, alpha: WittApprox, n: int) -> WittApprox:
        """Li_n at a root of unity via the finite Frobenius-orbit sum.

        Computes p^n/(p^{kn}-1) * sum_i p^{(k-1-i)n} L(phi^i alpha) over the
        orbit, with L = Li^{(p)}_n from ``li_p_riemann``, and certifies the
        valuation is at least n.  The orbit steps by the Witt Frobenius,
        which is alpha -> alpha^p at a root of unity (``WittApprox.frobenius``),
        and its k values of L come from one measure sum (``li_p_riemann``),
        which takes its p-th powers by the Frobenius.  That needs alpha to be
        the evaluator's Teichmuller lift of its residue; else ValueError.

        One orbit sum serves the whole orbit: a miss at alpha also memoizes
        phi^i of its value as the value at phi^i(alpha), i < k, which is what
        a fresh evaluation there gives, field for field.  Up to the factor
        p^n/(p^{kn}-1), in Z_p and fixed by phi, both sides at phi(alpha) are
        sum_i p^{(k-1-i)n} L(phi^{i+1} alpha).  The orbit sum at phi(alpha)
        is that sum by definition.  phi of the sum at alpha is that sum term
        by term: phi(L(x)) = L(phi x) field for field (``li_p_riemann``),
        phi^k = 1, and phi commutes with the sums, shifts and products that
        assemble the value and preserves the valuations they normalize by.
        The orbit is the measure sum's base orbit rotated to start at alpha: the
        vectors of k - 1 phi steps from alpha, as phi is an exact ring map on
        (Z/p^r)[x]/(h) and phi^k = 1 there.
        """
        if n < 1:
            raise ValueError("weight must be >= 1 here; weight 0 is z/(1-z)")
        key = (alpha.scale, alpha.coeffs, alpha.prec, n)
        if key not in self._li_teich:
            if self.teich(residue(alpha)) != alpha:
                raise ValueError("li_n_teich needs the Teichmuller lift of a residue")
            ctx = self.ctx
            p, k = ctx.p, ctx.k
            acc = self.li_p_riemann(alpha, n).shift((k - 1) * n)  # builds the base
            orbit = self._lip[(alpha.scale, alpha.coeffs, alpha.prec)][0].orbit
            i = orbit.index(alpha)
            orbit = orbit[i:] + orbit[:i]
            for i, zi in enumerate(orbit[1:], 1):
                acc = acc + self.li_p_riemann(zi, n).shift((k - 1 - i) * n)
            value = acc.shift(n) * ctx.inv_int(p ** (k * n) - 1)
            if not value.valuation_ge(n):
                raise ArithmeticError(
                    f"internal error: Li_{n} at a root of unity has valuation < {n}"
                )
            self._li_teich[key] = value
            for zi in orbit[1:]:  # Li_n(phi^i alpha) = phi^i Li_n(alpha)
                value = value.frobenius()
                self._li_teich[(zi.scale, zi.coeffs, zi.prec, n)] = value
        return self._li_teich[key]

    def li_tilde(self, alpha: WittApprox, n: int) -> WittApprox:
        """p^{-n} Li_n(alpha); weight 0 is alpha/(1-alpha)."""
        key = (alpha.coeffs, n)
        if key not in self._litilde:
            self._litilde[key] = (alpha * (self.ctx.one() - alpha).inv() if n == 0
                                  else self.li_n_teich(alpha, n).shift(-n))
        return self._litilde[key]

    # -- the disc series ----------------------------------------------------------

    def g_series(self, alpha: WittApprox, n: int) -> TruncSeries:
        """Series in w for p^{-n} Li_n(alpha(1+pw)) on the closed unit disc.

        Built by n dlog-weighted integrations from the weight-0 closed form,
        with constants injected from the Teichmuller route.

        Coefficient j of g_n has v_p >= j - n - v_p(j!), by induction on n,
        since d/dw g_n = g_{n-1}/(1+pw).  At weight 0, z/(1-z) at
        z = alpha(1+pw) has v_p >= j.  If coefficient l of g_{n-1} has
        v_p >= l - n + 1 - v_p(l!), then coefficient i = sum_l c_l (-p)^{i-l}
        of g_{n-1}/(1+pw) has v_p >= i - n + 1 - v_p(i!); integrating
        divides coefficient i = j-1 by j, and the new constant term
        p^{-n} Li_n(alpha) is integral (``li_n_teich``).  By Legendre,
        v_p(j!) <= j/(p-1), so weight n installs v_p >= (1 - 1/(p-1)) j - n.
        """
        ctx = self.ctx
        M = self.series_order
        store = self._g.setdefault(alpha.coeffs, {})
        if n in store:
            return store[n]
        slope = Fraction(ctx.p - 2, ctx.p - 1)  # 1 - 1/(p-1)
        if 0 not in store:
            lead = self.li_tilde(alpha, 0)  # alpha/(1-alpha)
            lin = TruncSeries.from_coeffs(
                ctx, "w", [ctx.one(), ctx.from_int(ctx.p)], order=M, slope=1
            )
            g0 = lin.over_linear(lead.shift(1)).scalar_mul(lead)
            store[0] = g0.with_tail(slope, 0)
            if self.trace is not None:
                self.trace({"series": "disc-series", "weight": 0, **store[0].debug_info()})
        start = max(j for j in store if j <= n)
        g = store[start]
        minus_p = ctx.from_int(-ctx.p)
        for j in range(start + 1, n + 1):
            integrated = g.over_linear(minus_p).integrate(slope, -j)
            states = (self.li_tilde(alpha, j).state, *integrated.states[1:])
            g = store[j] = TruncSeries.from_states(ctx, "w", states, integrated.tail)
            if self.trace is not None:
                self.trace({"series": "disc-series", "weight": j, **g.debug_info()})
        return store[n]

    # -- point values ---------------------------------------------------------------

    def li_n_at(self, x: XPoint, n: int) -> WittApprox:
        """Li_n(z) via the disc series; weight 0 is z/(1-z) directly.  Memoized
        per (alpha, w, n), so each (series, point) pair is evaluated once."""
        if n < 0:
            raise ValueError("weight must be >= 0")
        key = (x.alpha.coeffs, x.w.state, n)
        if key not in self._li_at:
            self._li_at[key] = (
                x.z * (self.ctx.one() - x.z).inv() if n == 0
                else self.g_series(x.alpha, n).eval_at(x.w, target=1).shift(n))
        return self._li_at[key]

    def log_at(self, x: XPoint) -> WittApprox:
        """log z; the Teichmuller factor contributes 0.  Memoized per w."""
        key = x.w.state
        if key not in self._log_at:
            self._log_at[key] = padic_log(self.ctx.one() + x.w.shift(1))
        return self._log_at[key]

    def big_l_at(self, x: XPoint, n: int) -> WittApprox:
        """sum_{m=0}^{n-1} (-1)^m/m! Li_{n-m}(z) log^m(z); needs p > n."""
        if self.ctx.p <= n:
            raise ValueError(f"needs p > n, got p={self.ctx.p}, n={n}")
        return log_sum(self.ctx, self.log_at(x), _l_weights(n), lambda k: self.li_n_at(x, n - k))

    def f_n_at(self, x: XPoint, n: int) -> WittApprox:
        """The weight-n combination sum_k a_k log^k(z) Li_{n-k}(z); p > n+1."""
        if self.ctx.p <= n + 1:
            raise ValueError(f"needs p > n+1, got p={self.ctx.p}, n={n}")
        return log_sum(self.ctx, self.log_at(x), a_coeffs(n), lambda k: self.li_n_at(x, n - k))

    def df_n_at(self, x: XPoint, n: int) -> WittApprox:
        """D F_n in closed form: (1-z) sum_k log^k Li_{n-k-1} (a_k + (k+1)a_{k+1})."""
        if self.ctx.p <= n + 1:
            raise ValueError(f"needs p > n+1, got p={self.ctx.p}, n={n}")
        li = lambda k: self.li_n_at(x, n - 1 - k)  # noqa: E731
        return (self.ctx.one() - x.z) * log_sum(self.ctx, self.log_at(x), _df_weights(n), li)


SHARED_SLOTS = 2  # evaluators that ``shared_evaluators`` keeps alive at once
_shared: ContextVar[dict | None] = ContextVar("shared_evaluators", default=None)


@contextmanager
def shared_evaluators():
    """Within it, ``evaluator`` holds the SHARED_SLOTS most recently used evaluators."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def evaluator(p: int, k: int, A: int, m: int | None, max_weight: int, M: int | None = None,
              trace=None) -> PolylogEvaluator:
    """A fresh evaluator or, inside ``shared_evaluators`` and untraced, the one
    held for (p, k, A, m, M), m and M resolved.  Sharing changes no value: each
    memo holds what a fresh evaluation gives, field for field."""
    ev = PolylogEvaluator(UnramifiedCtx(p, k, A), m, max_weight, M, trace)
    shared = _shared.get()
    if shared is None or trace is not None:
        return ev
    key = (p, k, A, ev.m, ev.series_order)
    shared[key] = ev = shared.pop(key, ev)  # the most recently used is last
    if len(shared) > SHARED_SLOTS:
        del shared[next(iter(shared))]
    return ev


@lru_cache(maxsize=None)
def _l_weights(n: int) -> tuple:
    return tuple([Fraction((-1) ** m, math.factorial(m)) for m in range(n)])


@lru_cache(maxsize=None)
def _df_weights(n: int) -> tuple:
    a = a_coeffs(n) + [0]  # a_n = 0
    return tuple([a[k] + (k + 1) * a[k + 1] for k in range(n)])


def log_sum(ctx: UnramifiedCtx, logz: WittApprox, weights, value) -> WittApprox:
    """sum_j weights[j] log^j(z) value(j), for rational weights: the one
    log-weighted sum of L_n, F_n, D F_n and the Section-3 difference formula.
    ``value(j)`` is evaluated only where weights[j] != 0.  Runs on raw states,
    with the interval rules in the operators' order for logpow * logz and
    acc + from_rational(c) * logpow * value(j); builds only the result."""
    acc, logpow, power, log = None, ctx.one().state, 0, logz.state
    for j, c in enumerate(weights):
        if c:
            for _ in range(power, j):
                logpow = mul_states(ctx, logpow, log)
            power = j
            term = mul_states(ctx, ctx.from_rational(c).state, logpow)
            x = value(j)
            logz._check(x)  # as the operators did: no operand from another context
            acc = add_states(ctx, acc, mul_states(ctx, term, x.state))
    return ctx.wrap(acc)


# -- verification drivers ------------------------------------------------------------


def verify_theorem(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 20,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
    trace=None,
) -> dict:
    """Valuation bound and finite-side reduction of D F_n over sampled points.

    Asserts v_p(DF_n(z)) >= n-1 with certified arithmetic and compares the
    reduction p^{1-n} DF_n(z) mod p against the inverse-Frobenius finite
    polylogarithm computed entirely in F_{p^k}.  Also pairs two points with
    the same residue and different disc coordinates to witness that the
    reduction is independent of w.
    """
    report_mod.check_weight("theorem", p, n, 2, gap=1)
    report_mod.check_order("theorem", M)
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n, M, trace)
    ctx = ev.ctx

    def reduction(zbar: FpkElement, w: WittApprox):
        df = ev.df_n_at(ev.xpoint(zbar, w), n)
        return df.valuation_ge(n - 1), residue(df.shift(1 - n))

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        val_ok, lhs = reduction(zbar, w)
        rhs = li_finite(n - 1, sigma(zbar))
        return {"valuationOk": val_ok, **report_mod.residue_record(lhs, rhs, val_ok)}

    def w_independence(records: list, rng: SplitMix64) -> dict:
        # same residue, two different disc coordinates
        count = len(records)
        zbar0 = ctx.residue_field.element(records[0]["zbar"])
        w1 = sample_w(ctx, rng.fork(count))
        w2 = sample_w(ctx, rng.fork(count + 1))
        bump = 2
        while w2.eq_to_prec(w1):
            w2 = sample_w(ctx, rng.fork(count + bump))
            bump += 1
        _, r1 = reduction(zbar0, w1)
        _, r2 = reduction(zbar0, w2)
        windep = {
            "zbar": list(zbar0.coeffs),
            "w1": w1.to_record(),
            "w2": w2.to_record(),
            "residue1": list(r1.coeffs),
            "residue2": list(r2.coeffs),
            "pass": r1 == r2,
        }
        return {"wIndependence": windep, "pass": windep["pass"]}

    return report_mod.sampled_report(
        "theorem", {"p": p, "n": n, "k": k, "A": A, "m": ev.m, "M": ev.series_order}, ctx,
        measure, samples, seed, jobs, points, finish=w_independence,
    )


def check_prop_reduction(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 50,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Riemann-sum integral mod p against li_n(zbar)/(1 - zbar^p) in F_{p^k}."""
    report_mod.check_weight("proposition1", p, n, 0)
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n)
    field = ev.ctx.residue_field

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        lhs = residue(ev.li_p_riemann(ev.xpoint(zbar, w).z, n))
        rhs = li_finite(n, zbar) * (field.one() - frobenius(zbar)).inverse()
        return report_mod.residue_record(lhs, rhs)

    return report_mod.sampled_report(
        "proposition1", {"p": p, "n": n, "k": k, "A": A, "m": ev.m}, ev.ctx, measure,
        samples, seed, jobs, points,
    )


def check_corollary(
    p: int,
    k: int = 1,
    ns: tuple = (1, 2, 3),
    A: int | None = None,
    m: int = 2,
) -> dict:
    """Exhaustive root-of-unity check: v_p(Li_n(alpha)) >= n and the mod-p
    value -li_n(sigma(alphabar))/(1-alphabar), for every residue not 0 or 1.

    At alphabar = -1 with n even the finite side vanishes, which forces one
    extra digit of valuation; that sharpening is asserted as well.  The
    records stay in integer-encoding order of alphabar, and every other
    value is read off one walk g^i of the unit group: the lifts alpha
    (``teichmuller_powers``, entered into the evaluator's ``teich`` memo)
    and the finite side.  With alphabar = g^i and
    1 - alphabar = g^j, sigma(alphabar) = g^{i p^{k-1}}, so li_n(sigma
    alphabar) is entry i p^{k-1} mod q-1 of ``li_finite_walk``; when it is
    g^e, the finite side is -g^{e-j}, and 0 when li_n vanishes.  The p-adic
    side takes one orbit sum per Frobenius orbit (``li_n_teich``).
    """
    report_mod.check_weights("corollary", p, ns, 1)
    A = default_precision(max(ns)) if A is None else A
    ev = evaluator(p, k, A, m, max(ns))
    field = ev.ctx.residue_field
    minus_one = -field.one()
    walk = unit_powers(p, k)
    order = len(walk)
    index = walk_index(p, k)
    lifts = ev.teich_walk()
    li = {n: li_finite_walk(n, field) for n in ns}
    turn = p ** (k - 1)  # sigma(g^i) = g^{i p^{k-1}}

    def measure(alphabar: FpkElement, n: int, i: int, j: int) -> dict:
        value = ev.li_n_teich(lifts[i], n)
        val_ok = value.valuation_ge(n)
        lhs = residue(value.shift(-n))
        e = index.get(li[n][i * turn % order])  # None where li_n vanishes
        rhs = field.zero() if e is None else -FpkElement(field, walk[(e - j) % order])
        rec = {"valuationOk": val_ok, **report_mod.residue_record(lhs, rhs, val_ok)}
        if alphabar == minus_one and n % 2 == 0:
            rec["extraValuationOk"] = value.valuation_ge(n + 1)
            rec["pass"] = rec["pass"] and rec["extraValuationOk"]
        return rec

    items = []
    for ab in map(field.from_int, range(2, p**k)):
        i, j = index[ab.coeffs], index[(field.one() - ab).coeffs]
        items += [({"alphabar": list(ab.coeffs), "n": n}, (ab, n, i, j)) for n in ns]
    return report_mod.assemble("corollary", {"p": p, "k": k, "ns": list(ns), "A": A, "m": m},
                               ev.ctx, report_mod.records(items, measure))


def check_maincong(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 50,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Disc expansion mod p: series evaluation against the finite-field sum
    of scaled Teichmuller values times w^j/j!."""
    report_mod.check_weight("maincong", p, n, 0, gap=1)
    report_mod.check_order("maincong", M)
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n, M)
    field = ev.ctx.residue_field
    inv_fact = [field.element(math.factorial(j) % p).inverse() for j in range(n + 1)]

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        lhs = residue(ev.li_n_at(x, n).shift(-n))
        wbar = residue(w)
        rhs = field.zero()
        wpow = field.one()
        for j in range(n + 1):
            rhs = rhs + residue(ev.li_tilde(x.alpha, n - j)) * wpow * inv_fact[j]
            wpow = wpow * wbar
        return report_mod.residue_record(lhs, rhs)

    # an explicit order is recorded so that a replay keeps it; the default
    # order follows from p, n and A
    params = {"p": p, "n": n, "k": k, "A": A, "m": ev.m}
    if M is not None:
        params["M"] = M
    return report_mod.sampled_report(
        "maincong", params, ev.ctx, measure, samples, seed, jobs, points,
    )


def factorial_valuation(j: int, p: int) -> int:
    """v_p(j!) by Legendre's formula."""
    total = 0
    q = p
    while q <= j:
        total += j // q
        q *= p
    return total


def check_g_valuations(
    p: int,
    n: int,
    k: int = 1,
    count: int = 5,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
) -> dict:
    """Certified coefficient bound of the disc series: degree j has
    v_p >= j - n - v_p(j!), checked on every stored coefficient."""
    report_mod.check_weight("g-valuation", p, n, 0, gap=1)
    report_mod.check_order("g-valuation", M)
    if count < 1:
        raise report_mod.ConfigError(f"g-valuation needs at least one residue, got {count}")
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n, M)
    rng = SplitMix64(seed)
    total = p**k - 2
    if total <= count:
        residues = [ev.ctx.residue_field.from_int(t) for t in range(2, p**k)]
    else:
        seen = []
        while len(seen) < count:
            zb = sample_zbar(ev.ctx, rng)
            if all(zb != s for s in seen):
                seen.append(zb)
        residues = seen

    def measure(zbar: FpkElement) -> dict:
        g = ev.g_series(ev.teich(zbar), n)
        bad = []
        for j, c in enumerate(g.coeffs):
            bound = j - n - factorial_valuation(j, p)
            mv = c.min_valuation
            if mv is not math.inf and mv < bound:
                bad.append({"j": j, "certified": int(mv), "bound": bound})
        return {"order": g.order, "violations": bad, "pass": not bad}

    items = [({"zbar": list(zbar.coeffs)}, (zbar,)) for zbar in residues]
    # an explicit order is recorded, as in maincong; the default order
    # follows from p, n and A
    params = {"p": p, "n": n, "k": k, "A": A, "m": ev.m, "count": len(residues), "seed": seed}
    if M is not None:
        params["M"] = M
    return report_mod.assemble(
        "g-valuation", params, ev.ctx, report_mod.records(items, measure),
    )


def check_functional_equation(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 20,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """F_n(z) + (-1)^n F_n(1/z) = 0 and F_n = -n L_n - L_{n-1} log z."""
    report_mod.check_weight("funceq", p, n, 2, gap=1)
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n)
    sign = (-1) ** n

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        fz = ev.f_n_at(x, n)
        finv = ev.f_n_at(x.inverse_point(), n)
        inversion_ok = report_mod.agree(fz, ev.ctx.from_int(-sign) * finv)
        logz = ev.log_at(x)
        viaL = ev.ctx.from_int(-n) * ev.big_l_at(x, n) - ev.big_l_at(x, n - 1) * logz
        l_route_ok = report_mod.agree(fz, viaL)
        return {"inversionOk": inversion_ok, "lRouteOk": l_route_ok,
                "pass": inversion_ok and l_route_ok}

    return report_mod.sampled_report(
        "functional-equation",
        {"p": p, "n": n, "k": k, "A": A, "m": ev.m, "checkDigits": report_mod.CHECK_DIGITS},
        ev.ctx, measure, samples, seed, jobs, points,
    )
