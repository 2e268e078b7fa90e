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
from fractions import Fraction

from .coleman import default_precision, evaluator, log_sum
from .finite_poly import FpkElement
from .identities import e_coeffs
from .padic_core import UnramifiedCtx, WittApprox, residue
from .power_series import TruncSeries
from . import report as report_mod


def default_f_order(A: int, kmax: int) -> int:
    return A + kmax + 5


def _dlog_chain(s: TruncSeries, z: WittApprox, steps: int) -> list:
    """s and its next ``steps`` iterated dlog integrals: each is the
    antiderivative of the last times du/(z+u), from 1/(z+u) = z^{-1}/(1 + u/z)."""
    zinv = z.inv()
    slope = Fraction(-1, s.ctx.p - 1)
    out = [s]
    for _ in range(steps):
        out.append(out[-1].over_linear(-zinv).scalar_mul(zinv).integrate(slope, 0))
    return out


def f_series(ctx: UnramifiedCtx, z: WittApprox, kmax: int, M: int) -> list:
    """The family f_0..f_kmax expanded about the base point z; entry k is f_k.

    Every coefficient of degree j in any member is certified to satisfy
    v_p >= -v_p(j!), the bound that survives repeated dlog integration of an
    integral series: f_0 = (z+u)/(1-z-u) is integral; multiplying by
    1/(z+u) = z^{-1} sum_i (-u/z)^i, a series of units, keeps
    v_p >= -v_p(i!) on coefficient i, and integrating divides coefficient
    j-1 by j, giving -v_p((j-1)!) - v_p(j) = -v_p(j!).  By Legendre,
    v_p(j!) <= j/(p-1), so each step installs v_p >= -j/(p-1).  Evaluation
    points u with v_p(u) >= 1 therefore converge.
    """
    zbar = residue(z)
    if zbar.is_zero() or zbar.is_one():
        raise ValueError("base point must satisfy |z| = |z-1| = 1")
    one = ctx.one()
    inv1z = (one - z).inv()
    f0 = TruncSeries.from_coeffs(ctx, "u", [z, one], order=M)
    return _dlog_chain(f0.over_linear(inv1z).scalar_mul(inv1z), z, kmax)  # (z+u)/(1-z-u)


def dz_series(ctx: UnramifiedCtx, z: WittApprox, k: int, M: int) -> TruncSeries:
    """The z-partial dz_k = (d/dz f_k)(z, S) at fixed S, expanded at S = z+u.

    Only f_0 has a nonzero diagonal value, f_0(z,z) = z/(1-z), so the
    boundary term gives dz_1 = -1/(1-z), and each further order is one dlog
    step; dz_1 is integral, so ``f_series``'s bound holds by its induction.
    """
    if k < 1:
        raise ValueError(f"the z-partial starts at k = 1, got k={k}")
    dz1 = TruncSeries.from_coeffs(ctx, "u", [-(ctx.one() - z).inv()], order=M)
    return _dlog_chain(dz1, z, k - 1)[-1]


# -- verification drivers ------------------------------------------------------


def delprop_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Difference formula: weighted f_{k+1} sums against log powers versus
    the difference of weight-(n+1) L-values at two congruent points."""
    report_mod.check_weight("delprop", p, n, 0, gap=2)
    report_mod.check_order("delprop", M)
    A = default_precision(n + 1) if A is None else A
    ev = evaluator(p, k, A, m, n + 1)
    ctx = ev.ctx
    Mf = default_f_order(A, n + 1) if M is None else M
    # the weight of log^j(S) f_{n+1-j} is (-1)^{n-j} (n-j)! C(n, n-j) = (-1)^{n-j} n!/j!
    weights = [(-1) ** (n - j) * math.perm(n, n - j) for j in range(n + 1)]
    families = {}  # the f family about alpha = teich(zbar), built once per residue

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        if zbar.coeffs not in families:
            families[zbar.coeffs] = f_series(ctx, x.alpha, n + 1, Mf)
        fs = families[zbar.coeffs]
        u = (x.alpha * w).shift(1)  # S - z = alpha p w
        logS = ev.log_at(x)
        fvals = [fs[kk + 1].eval_at(u, target=1) for kk in range(n + 1)]
        lhs = -log_sum(ctx, logS, weights, lambda j: fvals[n - j])
        l_at_alpha = ev.li_tilde(x.alpha, n + 1).shift(n + 1)
        l_at_s = ev.big_l_at(x, n + 1)
        rhs = ctx.from_int((-1) ** n * math.factorial(n)) * (l_at_alpha - l_at_s)
        return report_mod.value_record(lhs, rhs)

    return report_mod.sampled_report(
        "delprop", {"p": p, "n": n, "k": k, "A": A, "m": ev.m, "M": Mf,
                    "checkDigits": report_mod.CHECK_DIGITS},
        ctx, measure, samples, seed, jobs, points,
    )


def f_lemmas_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    M: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """Sampled driver over both single-point lemmas at z and S = z(1+pw):
    the congruence p^{-n} f_n(z, S) = (z/(1-z)) w^n/n! mod p, and the bound
    v_p(Df_k) >= k at k = max(n, 1).  Df_k uses d/dS f_k = f_{k-1}/S, so
    S(1-S) d/dS contributes (1-S) f_{k-1}, plus z(1-z) times the z-partial."""
    report_mod.check_weight("f-lemmas", p, n, 0, gap=1)
    report_mod.check_order("f-lemmas", M)
    korder = max(n, 1)  # >= n, so it also sets the digits for f_n
    A = default_precision(korder) if A is None else A
    ev = evaluator(p, k, A, None, korder)
    ctx = ev.ctx
    Mf = default_f_order(A, korder) if M is None else M
    inv_fact = ctx.residue_field.element(math.factorial(n) % p).inverse()

    def measure(zbar: FpkElement, wz: WittApprox, w: WittApprox) -> dict:
        z = ev.xpoint(zbar, wz).z
        fs = f_series(ctx, z, n, Mf)
        u = (z * w).shift(1)  # S - z = z p w
        lhs = residue(fs[n].eval_at(u, target=1).shift(-n))
        rhs = residue(z * (ctx.one() - z).inv()) * (residue(w) ** n) * inv_fact
        s_pt = z * (ctx.one() + w.shift(1))
        fprev = fs[korder - 1].eval_at(u, target=1)
        dzval = dz_series(ctx, z, korder, Mf).eval_at(u, target=1)
        df_ok = ((ctx.one() - s_pt) * fprev + z * (ctx.one() - z) * dzval).valuation_ge(korder)
        return {"congruenceOk": lhs == rhs, "dfValuationOk": df_ok, "dfOrder": korder,
                **report_mod.residue_record(lhs, rhs, df_ok)}

    return report_mod.sampled_report(
        "f-lemmas", {"p": p, "n": n, "k": k, "A": A, "M": Mf, "dfOrder": korder},
        ctx, measure, samples, seed, jobs, points, names=("wz", "w"),
    )


def e_recover_check(
    p: int,
    n: int,
    k: int = 1,
    samples: int = 10,
    seed: int = report_mod.DEFAULT_SEED,
    A: int | None = None,
    m: int | None = None,
    jobs: int = 1,
    points: list | None = None,
) -> dict:
    """The simplified-weight route: sum_m e_m L_m(z) log^{n-m}(z) must equal
    the closed-form combination of weight n at sampled points."""
    report_mod.check_weight("e-recover", p, n, 2, gap=1)
    A = default_precision(n) if A is None else A
    ev = evaluator(p, k, A, m, n)
    ecs = e_coeffs(n)
    weights = [ecs[n - j] for j in range(n)]  # e_m on log^{n-m}(z) L_m(z)

    def measure(zbar: FpkElement, w: WittApprox) -> dict:
        x = ev.xpoint(zbar, w)
        lhs = log_sum(ev.ctx, ev.log_at(x), weights, lambda j: ev.big_l_at(x, n - j))
        return report_mod.value_record(lhs, ev.f_n_at(x, n))

    return report_mod.sampled_report(
        "e-recover", {"p": p, "n": n, "k": k, "A": A, "m": ev.m,
                      "checkDigits": report_mod.CHECK_DIGITS},
        ev.ctx, measure, samples, seed, jobs, points,
    )
