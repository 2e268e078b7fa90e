"""Iterated dlog integrals: an independent route to the same combinations.

The family starts from f_0(z,S) = S/(1-S) and integrates against dlog t from
z to S.  Expanded in u = S - z at a fixed base point z, each step is a series
integration against the kernel 1/(z+u), so the whole family is computable
with no polylogarithm input at all.  That makes it a genuinely disjoint code
path: the difference formula ties weighted sums of f_{k+1} against log powers
to differences of L-values, and the congruence and valuation lemmas tie the
same family back to the finite side.  Agreement of the two routes is the
point of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coleman import PolylogEvaluator, XPoint, default_precision, default_riemann_m
from .finite_poly import FpkElement
from .identities import e_coeffs
from .padic_core import UnramifiedCtx, WittApprox, residue
from .power_series import TruncSeries
from . import report as report_mod


def default_f_order(A: int, kmax: int) -> int:
    return A + kmax + 5


@dataclass(frozen=True)
class FSeriesPair:
    """f_k(z, z+u) as a series in u, with the partial in z alongside.

    ``dz_series`` expands (d/dz f_k)(z, S) at fixed S, evaluated at S = z+u;
    it is maintained by the boundary-term recursion, since only f_0 has a
    nonzero diagonal value f_0(z,z) = z/(1-z).
    """

    series: TruncSeries
    dz_series: TruncSeries


def f_series(ctx: UnramifiedCtx, z: WittApprox, kmax: int, M: int | None = None) -> list:
    """The family f_0..f_kmax expanded about the base point z; entry k is f_k.

    Every coefficient of degree j in any member is certified to satisfy
    v_p >= -v_p(j!), the bound that survives repeated dlog integration of an
    integral series; evaluation points u with v_p(u) >= 1 therefore converge.
    """
    zbar = residue(z)
    if zbar.is_zero() or zbar.is_one():
        raise ValueError("base point must satisfy |z| = |z-1| = 1")
    if M is None:
        M = default_f_order(ctx.A, kmax)
    one = ctx.one()
    inv1z = (one - z).inv()
    slope = -Fraction(1, ctx.p - 1)
    f0 = TruncSeries.from_coeffs(ctx, "u", [z, one], order=M)
    f0 = f0.over_linear(inv1z).scalar_mul(inv1z)  # (z+u)/(1-z-u)
    dz0 = TruncSeries.from_coeffs(ctx, "u", [ctx.exact_zero()], order=M)
    zinv = z.inv()

    def dlog_step(s: TruncSeries) -> TruncSeries:
        # integrate s/(z+u) du: 1/(z+u) = z^{-1}/(1 + u/z)
        return s.over_linear(-zinv).scalar_mul(zinv).integrate().with_tail(slope, 0)

    out = [FSeriesPair(f0, dz0)]
    fk, dzk = f0, dz0
    for k in range(1, kmax + 1):
        fk = dlog_step(fk)
        if k == 1:
            dzk = TruncSeries.from_coeffs(ctx, "u", [-inv1z], order=M)
        else:
            dzk = dlog_step(dzk)
        out.append(FSeriesPair(fk, dzk))
    return out


# -- verification drivers ------------------------------------------------------


def delprop_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
    check_digits: int = 3,
) -> dict:
    """Difference formula: weighted f_{k+1} sums against log powers versus
    the difference of weight-(n+1) L-values at two congruent points."""
    report_mod.check_weight("delprop", p, n, 0, gap=2)
    A = default_precision(n + 1) if A is None else A
    m = default_riemann_m(n + 1) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n + 1)
    Mf = default_f_order(A, n + 1) if M is None else M
    binoms = [math.comb(n, kk) for kk in range(n + 1)]
    facts = [math.factorial(kk) for kk in range(n + 2)]

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        alpha = ev.teich(zbar)
        x = XPoint.from_alpha_w(ctx, alpha, w)
        fs = f_series(ctx, alpha, n + 1, Mf)
        u = (alpha * w).shift(1)  # S - z = alpha p w
        logS = ev.log_at(x)
        lhs = ctx.exact_zero()
        logpow = ctx.one()
        fvals = [fs[kk + 1].series.eval_at(u, target=1) for kk in range(n + 1)]
        for kk in range(n, -1, -1):
            sign = -1 if kk % 2 else 1
            term = ctx.from_int(sign * facts[kk] * binoms[kk]) * fvals[kk] * logpow
            lhs = lhs + term
            logpow = logpow * logS
        lhs = -lhs
        l_at_alpha = ev.li_tilde(alpha, n + 1).shift(n + 1)
        l_at_s = ev.big_l_at(x, n + 1)
        rhs = ctx.from_int((-1) ** n * facts[n]) * (l_at_alpha - l_at_s)
        return {"lhs": lhs.to_record(), "rhs": rhs.to_record(),
                "pass": (lhs - rhs).is_zero_to(check_digits)}

    return report_mod.sampled_report(
        "delprop",
        {"p": p, "n": n, "k": k, "A": A, "m": m, "M": Mf, "checkDigits": check_digits},
        ctx, measure, samples, seed, jobs, points,
    )


def f_congruence_check(ctx: UnramifiedCtx, z: WittApprox, w: WittApprox, n: int,
                       M: int | None = None, fs: list | None = None) -> dict:
    """Single-point congruence p^{-n} f_n(z, z(1+pw)) = (z/(1-z)) w^n/n! mod p."""
    if ctx.p <= n + 1:
        raise report_mod.ConfigError(f"needs p > n+1, got p={ctx.p}, n={n}")
    field = ctx.residue_field
    if fs is None:
        fs = f_series(ctx, z, max(n, 1), M)
    u = (z * w).shift(1)  # S - z = z p w
    fval = fs[n].series.eval_at(u, target=1)
    lhs = residue(fval.shift(-n))
    rhs = (
        residue(z * (ctx.one() - z).inv())
        * (residue(w) ** n)
        * field.element(math.factorial(n) % ctx.p).inverse()
    )
    return {
        "lhsResidue": list(lhs.coeffs),
        "rhsResidue": list(rhs.coeffs),
        "pass": lhs == rhs,
    }


def df_lemma_check(ctx: UnramifiedCtx, z: WittApprox, w: WittApprox, korder: int,
                   M: int | None = None, fs: list | None = None) -> dict:
    """Single-point valuation bound v_p(Df_k) >= k at (z, S = z(1+pw)).

    Uses d/dS f_k = f_{k-1}/S, so S(1-S) d/dS contributes (1-S) f_{k-1},
    plus the maintained partial in z."""
    if korder < 1:
        raise report_mod.ConfigError("the derivation bound needs order >= 1")
    if fs is None:
        fs = f_series(ctx, z, korder, M)
    u = (z * w).shift(1)
    s_pt = z * (ctx.one() + w.shift(1))
    fprev = fs[korder - 1].series.eval_at(u, target=1)
    dzval = fs[korder].dz_series.eval_at(u, target=1)
    df = (ctx.one() - s_pt) * fprev + z * (ctx.one() - z) * dzval
    return {"order": korder, "valuationOk": df.valuation_ge(korder),
            "pass": df.valuation_ge(korder)}


def f_lemmas_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = 0,
    A: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Sampled driver over both single-point lemmas: the f_n congruence and
    the v_p(Df_k) >= k bound at k = max(n, 1)."""
    report_mod.check_weight("f-lemmas", p, n, 0, gap=1)
    korder = max(n, 1)
    A = default_precision(max(n, korder)) if A is None else A
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, default_riemann_m(n), max_weight=max(n, 1))
    Mf = default_f_order(A, korder) if M is None else M

    def measure(zbar: FpkElement, wz: WittApprox, w: WittApprox) -> dict:
        z = ev.xpoint(zbar, wz).z
        fs = f_series(ctx, z, korder, Mf)
        cong = f_congruence_check(ctx, z, w, n, fs=fs)
        dfres = df_lemma_check(ctx, z, w, korder, fs=fs)
        return {"congruenceOk": cong["pass"], "lhsResidue": cong["lhsResidue"],
                "rhsResidue": cong["rhsResidue"], "dfValuationOk": dfres["valuationOk"],
                "dfOrder": korder, "pass": cong["pass"] and dfres["valuationOk"]}

    return report_mod.sampled_report(
        "f-lemmas", {"p": p, "n": n, "k": k, "A": A, "M": Mf, "dfOrder": korder},
        ctx, measure, samples, seed, jobs, points, with_wz=True,
    )


def e_recover_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = 0,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
    check_digits: int = 3,
) -> dict:
    """The simplified-weight route: sum_m e_m L_m(z) log^{n-m}(z) must equal
    the closed-form combination of weight n at sampled points."""
    report_mod.check_weight("e-recover", p, n, 2, gap=1)
    A = default_precision(n) if A is None else A
    m = default_riemann_m(n) if m is None else m
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    ecs = e_coeffs(n)

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        logz = ev.log_at(x)
        lhs = ctx.exact_zero()
        for mm in range(1, n + 1):
            if ecs[mm] == 0:
                continue
            lhs = lhs + ctx.from_rational(ecs[mm]) * ev.big_l_at(x, mm) * logz ** (n - mm)
        rhs = ev.f_n_at(x, n)
        return {"lhs": lhs.to_record(), "rhs": rhs.to_record(),
                "pass": (lhs - rhs).is_zero_to(check_digits)}

    return report_mod.sampled_report(
        "e-recover",
        {"p": p, "n": n, "k": k, "A": A, "m": m, "checkDigits": check_digits},
        ctx, measure, samples, seed, jobs, points,
    )
