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
from dataclasses import dataclass
from fractions import Fraction

from .finite_poly import FpkElement, li_finite, poly_mul, sigma
from .identities import a_coeffs
from .padic_core import (
    PrecisionError,
    UnramifiedCtx,
    WittApprox,
    padic_log,
    residue,
    teichmuller,
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
        if not w.is_exact_zero and w.min_valuation < 0:
            raise ValueError("the disc coordinate w must be integral")
        z = alpha * (ctx.one() + w.shift(1))
        return XPoint(ctx, z, alpha, w, zbar)

    def inverse_point(self) -> "XPoint":
        """The point 1/z, with Teichmuller part alpha^{-1}."""
        ctx = self.ctx
        t = (ctx.one() + self.w.shift(1)).inv()
        w_inv = (t - ctx.one()).shift(-1)
        return XPoint.from_alpha_w(ctx, self.alpha.inv(), w_inv)


class PolylogEvaluator:
    """Caches and drives polylogarithm computation for one context.

    ``riemann_m`` fixes the measure-sum modulus (certified error p^-m);
    ``max_weight`` is the largest weight the run needs, so one measure-sum
    evaluation per point serves every weight at once; ``series_order`` is the
    disc-series truncation M, by default enough for weight ``max_weight``.
    """

    def __init__(
        self,
        ctx: UnramifiedCtx,
        riemann_m: int,
        max_weight: int = 4,
        series_order: int | None = None,
        trace=None,
    ):
        if riemann_m < 1:
            raise ValueError("riemann modulus must be >= 1")
        self.ctx = ctx
        self.m = riemann_m
        self.max_weight = max_weight
        self.series_order = series_order or default_series_order(
            ctx.p, max_weight, ctx.A
        )
        self.trace = trace
        self._teich: dict = {}
        self._lip: dict = {}
        self._litilde: dict = {}
        self._g: dict = {}

    # -- Teichmuller points ---------------------------------------------------

    def teich(self, zbar: FpkElement) -> WittApprox:
        key = zbar.coeffs
        if key not in self._teich:
            self._teich[key] = teichmuller(self.ctx, zbar)
        return self._teich[key]

    def xpoint(self, zbar: FpkElement, w: WittApprox) -> XPoint:
        return XPoint.from_alpha_w(self.ctx, self.teich(zbar), w)

    # -- measure Riemann sums ---------------------------------------------------

    def li_p_riemann(self, z: WittApprox, n: int) -> WittApprox:
        """Riemann sum for the Frobenius-corrected weight-n polylogarithm.

        The integrand x^{-n} is constant mod p^m on each cell and the measure
        takes integral values here, so the certified absolute error is p^-m.
        """
        if n < 0:
            raise ValueError("weight must be >= 0")
        m = self.m
        key = (z.scale, z.coeffs, z.prec)
        cached = self._lip.setdefault(key, {})
        if n not in cached:
            want = set(range(0, max(n, self.max_weight) + 1)) - set(cached)
            want.add(n)
            ctx = self.ctx
            sums, inv_cell = self._measure_sums(z, sorted(want), m)
            inv_factor = ctx.make(0, inv_cell, z.prec)  # 1/(1 - z^{p^m})
            certified = min(m, z.prec)
            for nn, vec in sums.items():
                raw = ctx.make(0, vec, ctx.A)
                cached[nn] = (raw * inv_factor).cap_abs(certified)
        return cached[n]

    def _measure_sums(self, z: WittApprox, ns: list, m: int) -> tuple:
        """S_n = sum_{p∤a<p^m} a^{-n} z^a mod p^min(m,A) for each n in ns.

        Writing a = a0 + p t (0 < a0 < p, 0 <= t < T = p^{m-1}),
        (a0 + pt)^{-n} = a0^{-n} sum_{j<m} C(-n,j) (pt/a0)^j exactly mod p^m,
        so S_n = sum_j C(-n,j) p^j G_j H_{n+j} with
        G_j = sum_{t<T} t^j y^t (y = z^p, shared by every weight) and
        H_e = sum_{a0<p} a0^{-e} z^{a0}.  As 1 - y is a unit on the locus,
        the G_j follow from the telescoping recurrence
        (1-y) G_j = sum_{i<j} C(j,i)(-1)^{j-i+1} G_i + (-1)^j - (T-1)^j y^T,
        where y^T = z^{p^m}.  Cost O(p m + m^2) ring ops.

        Returns the S_n as coefficient vectors mod p^A, and 1/(1 - z^{p^m})
        mod p^A, the denominator of the cell measure.
        """
        ctx = self.ctx
        if z.scale != 0:
            raise ValueError("measure requires a unit z")
        if residue(z).is_zero() or residue(z).is_one():
            raise ValueError("measure requires |z| = |z-1| = 1")
        p, pA, k, h = ctx.p, ctx.pA, ctx.k, ctx.hbar
        one = (1,) + (0,) * (k - 1)
        zvec = z.coeffs
        z_pows = [zvec]  # z^{a0} for 0 < a0 < p
        for _ in range(p - 2):
            z_pows.append(poly_mul(z_pows[-1], zvec, h, pA))
        y = poly_mul(z_pows[-1], zvec, h, pA)
        # G_0 = sum_{t<T} y^t one base-p digit of T at a time:
        # sum_{t<pS} y^t = sum_{t<S} y^t * sum_{s<p} y^{sS}
        g0, y_s = one, y
        for _ in range(m - 1):
            block, term = list(one), one
            for _ in range(p - 1):
                term = poly_mul(term, y_s, h, pA)
                block = [b + c for b, c in zip(block, term)]
            g0 = poly_mul(g0, tuple(c % pA for c in block), h, pA)
            y_s = poly_mul(term, y_s, h, pA)
        z_top = y_s  # y^T = z^{p^m}
        one_minus_top = ((1 - z_top[0]) % pA,) + tuple(-c % pA for c in z_top[1:])
        inv_cell = ctx.vec_inv(one_minus_top, ctx.A)
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
        H = {}
        invs = [pow(a0, -1, pA) for a0 in range(1, p)]
        lo = min(ns)
        scalars = [pow(c, lo, pA) for c in invs]
        for e in range(lo, max(ns) + J):
            acc = [0] * k
            for c, zv in zip(scalars, z_pows):
                for r in range(k):
                    acc[r] += c * zv[r]
            H[e] = tuple(c % pA for c in acc)
            scalars = [c * iv % pA for c, iv in zip(scalars, invs)]
        sums = {}
        for n in ns:
            acc = [0] * k
            binom = 1  # C(-n, j)
            for j in range(J if n else 1):  # C(0, j) = 0 for j > 0
                c = binom * p**j
                prod = poly_mul(G[j], H[n + j], h, pA)
                for r in range(k):
                    acc[r] += c * prod[r]
                binom = binom * (-n - j) // (j + 1)
            sums[n] = tuple(c % pA for c in acc)
        return sums, inv_cell

    # -- Teichmuller closed formula ---------------------------------------------

    def li_n_teich(self, alpha: WittApprox, n: int) -> WittApprox:
        """Li_n at a root of unity via the finite Frobenius-orbit sum.

        Computes p^n/(p^{kn}-1) * sum_i p^{(k-1-i)n} Li^{(p)}_n(alpha^{p^i})
        over the orbit, and certifies the valuation is at least n.
        """
        if n < 1:
            raise ValueError("weight must be >= 1 here; weight 0 is z/(1-z)")
        ctx = self.ctx
        p, k = ctx.p, ctx.k
        acc = ctx.exact_zero()
        zi = alpha
        for i in range(k):
            lip = self.li_p_riemann(zi, n)
            acc = acc + lip.shift((k - 1 - i) * n)
            if i + 1 < k:
                zi = zi**p
        value = acc.shift(n) * ctx.from_int(p ** (k * n) - 1).inv()
        if not value.valuation_ge(n):
            raise ArithmeticError(
                f"internal error: Li_{n} at a root of unity has valuation < {n}"
            )
        return value

    def li_tilde(self, alpha: WittApprox, n: int) -> WittApprox:
        """p^{-n} Li_n(alpha); weight 0 is alpha/(1-alpha)."""
        key = (alpha.coeffs, n)
        if key not in self._litilde:
            if n == 0:
                val = alpha * (self.ctx.one() - alpha).inv()
            else:
                val = self.li_n_teich(alpha, n).shift(-n)
            self._litilde[key] = val
        return self._litilde[key]

    # -- the disc series ----------------------------------------------------------

    def g_series(self, alpha: WittApprox, n: int) -> TruncSeries:
        """Series in w for p^{-n} Li_n(alpha(1+pw)) on the closed unit disc.

        Built by n dlog-weighted integrations from the weight-0 closed form,
        with constants injected from the Teichmuller route; coefficient j
        carries the certified bound v_p >= j - n - v_p(j!).
        """
        ctx = self.ctx
        M = self.series_order
        store = self._g.setdefault(alpha.coeffs, {})
        if n in store:
            return store[n]
        one = ctx.one()
        slope = 1 - Fraction(1, ctx.p - 1)
        if 0 not in store:
            lead = alpha * (one - alpha).inv()  # alpha/(1-alpha)
            lin = TruncSeries.from_coeffs(
                ctx, "w", [one, ctx.from_int(ctx.p)], order=M, slope=1
            )
            g0 = lin.over_linear(lead.shift(1)).scalar_mul(lead)
            store[0] = g0.with_tail(slope, 0)
            if self.trace is not None:
                self.trace({"series": "disc-series", "weight": 0, **store[0].debug_info()})
        start = max(j for j in store if j <= n)
        g = store[start]
        minus_p = ctx.from_int(-ctx.p)
        for j in range(start + 1, n + 1):
            integrated = g.over_linear(minus_p).integrate()
            coeffs = [self.li_tilde(alpha, j), *integrated.coeffs[1:]]
            g = TruncSeries(ctx, "w", coeffs, integrated.tail).with_tail(slope, -j)
            store[j] = g
            if self.trace is not None:
                self.trace({"series": "disc-series", "weight": j, **g.debug_info()})
        return store[n]

    # -- point values ---------------------------------------------------------------

    def li_n_at(self, x: XPoint, n: int, min_digits: int = 1) -> WittApprox:
        """Li_n(z) via the disc series; weight 0 is z/(1-z) directly."""
        if n < 0:
            raise ValueError("weight must be >= 0")
        if n == 0:
            return x.z * (self.ctx.one() - x.z).inv()
        g = self.g_series(x.alpha, n)
        return g.eval_at(x.w, target=min_digits).shift(n)

    def log_at(self, x: XPoint) -> WittApprox:
        """log z; the Teichmuller factor contributes 0."""
        return padic_log(self.ctx.one() + x.w.shift(1))

    def _log_combination(self, x: XPoint, n: int, weights: list,
                         min_digits: int) -> WittApprox:
        """sum_k weights[k] log^k(z) Li_{n-k}(z), for rational weights."""
        ctx = self.ctx
        logz = self.log_at(x)
        acc = ctx.exact_zero()
        logpow = ctx.one()
        for k, c in enumerate(weights):
            acc = acc + ctx.from_rational(c) * logpow * self.li_n_at(x, n - k, min_digits)
            logpow = logpow * logz
        return acc

    def big_l_at(self, x: XPoint, n: int, min_digits: int = 1) -> WittApprox:
        """sum_{m=0}^{n-1} (-1)^m/m! Li_{n-m}(z) log^m(z); needs p > n."""
        if self.ctx.p <= n:
            raise ValueError(f"needs p > n, got p={self.ctx.p}, n={n}")
        weights = [Fraction((-1) ** m, math.factorial(m)) for m in range(n)]
        return self._log_combination(x, n, weights, min_digits)

    def f_n_at(self, x: XPoint, n: int, min_digits: int = 1) -> WittApprox:
        """The weight-n combination sum_k a_k log^k(z) Li_{n-k}(z); p > n+1."""
        if self.ctx.p <= n + 1:
            raise ValueError(f"needs p > n+1, got p={self.ctx.p}, n={n}")
        return self._log_combination(x, n, a_coeffs(n), min_digits)

    def df_n_at(self, x: XPoint, n: int, min_digits: int = 1) -> WittApprox:
        """D F_n in closed form: (1-z) sum_k log^k Li_{n-k-1} (a_k + (k+1)a_{k+1})."""
        if self.ctx.p <= n + 1:
            raise ValueError(f"needs p > n+1, got p={self.ctx.p}, n={n}")
        a = a_coeffs(n) + [Fraction(0)]  # a_n = 0
        weights = [a[k] + (k + 1) * a[k + 1] for k in range(n)]
        return (self.ctx.one() - x.z) * self._log_combination(x, n - 1, weights, min_digits)


# -- verification drivers ------------------------------------------------------------


def verify_theorem(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 20,
    seed: int = 0,
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
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    M = default_series_order(p, n, A) if M is None else M
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n, series_order=M, trace=trace)

    def reduction(zbar: FpkElement, w: WittApprox):
        df = ev.df_n_at(ev.xpoint(zbar, w), n)
        return df.valuation_ge(n - 1), residue(df.shift(1 - n))

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        val_ok, lhs = reduction(zbar, w)
        rhs = li_finite(n - 1, sigma(zbar))
        return {"valuationOk": val_ok, "lhsResidue": list(lhs.coeffs),
                "rhsResidue": list(rhs.coeffs), "pass": val_ok and lhs == rhs}

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
        "theorem", {"p": p, "n": n, "k": k, "A": A, "m": m, "M": M}, ctx, measure,
        samples, seed, jobs, points, finish=w_independence,
    )


def check_prop_reduction(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 50,
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Riemann-sum integral mod p against li_n(zbar)/(1 - zbar^p) in F_{p^k}."""
    report_mod.check_weight("proposition1", p, n, 0)
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    field = ctx.residue_field

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        lhs = residue(ev.li_p_riemann(ev.xpoint(zbar, w).z, n))
        rhs = li_finite(n, zbar) * (field.one() - zbar**p).inverse()
        return {"lhsResidue": list(lhs.coeffs), "rhsResidue": list(rhs.coeffs),
                "pass": lhs == rhs}

    return report_mod.sampled_report(
        "proposition1", {"p": p, "n": n, "k": k, "A": A, "m": m}, ctx, measure,
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
    extra digit of valuation; that sharpening is asserted as well.
    """
    for n in ns:
        report_mod.check_weight("corollary", p, n, 1)
    A = default_precision(max(ns)) if A is None else A
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=max(ns))
    field = ctx.residue_field
    minus_one = -field.one()
    jobs_records = []
    index = 0
    for t in range(2, p**k):
        alphabar = field.from_int(t)
        alpha = ev.teich(alphabar)
        for n in ns:
            rec = {"index": index, "alphabar": list(alphabar.coeffs), "n": n}
            index += 1
            try:
                li = ev.li_n_teich(alpha, n)
                tilde = li.shift(-n)
                rec["valuationOk"] = li.valuation_ge(n)
                lhs = residue(tilde)
                rhs = -(li_finite(n, sigma(alphabar)) * (field.one() - alphabar).inverse())
                rec["lhsResidue"] = list(lhs.coeffs)
                rec["rhsResidue"] = list(rhs.coeffs)
                rec["pass"] = rec["valuationOk"] and lhs == rhs
                if alphabar == minus_one and n % 2 == 0:
                    extra = li.valuation_ge(n + 1)
                    rec["extraValuationOk"] = extra
                    rec["pass"] = rec["pass"] and extra
            except PrecisionError as e:
                rec["precisionShortfall"] = str(e)
                rec["pass"] = False
            jobs_records.append(rec)
    return report_mod.assemble(
        "corollary",
        {"p": p, "k": k, "ns": list(ns), "A": A, "m": m},
        ctx,
        jobs_records,
    )


def check_maincong(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 50,
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Disc expansion mod p: series evaluation against the finite-field sum
    of scaled Teichmuller values times w^j/j!."""
    report_mod.check_weight("maincong", p, n, 0, gap=1)
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n, series_order=M)
    field = ctx.residue_field
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
        return {"lhsResidue": list(lhs.coeffs), "rhsResidue": list(rhs.coeffs),
                "pass": lhs == rhs}

    # M is not in the params, so a replay falls back to the default order
    # (ROADMAP item 3)
    return report_mod.sampled_report(
        "maincong", {"p": p, "n": n, "k": k, "A": A, "m": m}, ctx, measure,
        samples, seed, jobs, points,
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
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
) -> dict:
    """Certified coefficient bound of the disc series: degree j has
    v_p >= j - n - v_p(j!), checked on every stored coefficient."""
    report_mod.check_weight("g-valuation", p, n, 0, gap=1)
    if count < 1:
        raise report_mod.ConfigError(f"g-valuation needs at least one residue, got {count}")
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n, series_order=M)
    rng = SplitMix64(seed)
    total = p**k - 2
    if total <= count:
        residues = [ctx.residue_field.from_int(t) for t in range(2, p**k)]
    else:
        seen = []
        while len(seen) < count:
            zb = sample_zbar(ctx, rng)
            if all(zb != s for s in seen):
                seen.append(zb)
        residues = seen
    records = []
    for idx, zbar in enumerate(residues):
        g = ev.g_series(ev.teich(zbar), n)
        bad = []
        for j, c in enumerate(g.coeffs):
            bound = j - n - factorial_valuation(j, p)
            mv = c.min_valuation
            if mv is not math.inf and mv < bound:
                bad.append({"j": j, "certified": int(mv), "bound": bound})
        records.append(
            {
                "index": idx,
                "zbar": list(zbar.coeffs),
                "order": g.order,
                "violations": bad,
                "pass": not bad,
            }
        )
    return report_mod.assemble(
        "g-valuation",
        {"p": p, "n": n, "k": k, "A": A, "m": m, "count": len(residues), "seed": seed},
        ctx,
        records,
    )


def check_functional_equation(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 20,
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
    check_digits: int = 3,
) -> dict:
    """F_n(z) + (-1)^n F_n(1/z) = 0 and F_n = -n L_n - L_{n-1} log z."""
    report_mod.check_weight("funceq", p, n, 2, gap=1)
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    sign = (-1) ** n

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        fz = ev.f_n_at(x, n)
        finv = ev.f_n_at(x.inverse_point(), n)
        inversion_ok = (fz + ctx.from_int(sign) * finv).is_zero_to(check_digits)
        logz = ev.log_at(x)
        viaL = ctx.from_int(-n) * ev.big_l_at(x, n) - ev.big_l_at(x, n - 1) * logz
        l_route_ok = (fz - viaL).is_zero_to(check_digits)
        return {"inversionOk": inversion_ok, "lRouteOk": l_route_ok,
                "pass": inversion_ok and l_route_ok}

    return report_mod.sampled_report(
        "functional-equation",
        {"p": p, "n": n, "k": k, "A": A, "m": m, "checkDigits": check_digits},
        ctx, measure, samples, seed, jobs, points,
    )
