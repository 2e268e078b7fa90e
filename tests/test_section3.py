"""The iterated-integral route: closed forms, lemmas, and route agreement."""

import pytest

from polylogp import coleman, section3
from polylogp.coleman import (
    PolylogEvaluator,
    XPoint,
    default_precision,
    default_riemann_m,
    sample_w,
)
from polylogp.matrix import CHECKS
from polylogp.padic_core import UnramifiedCtx, padic_log
from polylogp.power_series import TruncSeries
from polylogp.report import ConfigError, sample_zbar
from polylogp.rng import SplitMix64
from polylogp.section3 import (
    default_f_order,
    delprop_check,
    dz_series,
    e_recover_check,
    f_lemmas_check,
    f_series,
)

from test_coleman import sample_xpoint
from test_power_series import series_derivative, series_mul


def _setup(p, n, k=1):
    ctx = UnramifiedCtx(p, k, default_precision(n))
    ev = PolylogEvaluator(ctx, default_riemann_m(n), max_weight=n)
    return ctx, ev


def test_f0_expansion_and_diagonal_values():
    ctx, ev = _setup(5, 2)
    rng = SplitMix64(3)
    z = sample_xpoint(ev, rng).z
    fs = f_series(ctx, z, 3, default_f_order(ctx.A, 3))
    # constant term of f_0 is z/(1-z); all further diagonals vanish
    assert fs[0].coeffs[0].eq_to_prec(z * (ctx.one() - z).inv())
    for k in range(1, 4):
        c0 = fs[k].coeffs[0]
        assert c0.exact or c0.valuation_ge(c0.abs_prec)


def test_f1_coefficients_closed_form():
    # f_1(z, z+u) = -log(1 - u/(1-z)): coefficient of u^j is 1/(j (1-z)^j)
    ctx, ev = _setup(7, 2)
    rng = SplitMix64(5)
    z = sample_xpoint(ev, rng).z
    fs = f_series(ctx, z, 1, M=10)
    inv1z = (ctx.one() - z).inv()
    for j in range(1, 11):
        expected = inv1z**j * ctx.from_int(j).inv()
        got = fs[1].coeffs[j]
        assert (got - expected).valuation_ge(min(got.abs_prec, expected.abs_prec)), j


def test_f1_evaluation_matches_log_difference():
    # independent route: f_1(z,S) = log(1-z) - log(1-S) = -log((1-S)/(1-z))
    ctx, ev = _setup(7, 2)
    rng = SplitMix64(6)
    for i in range(8):
        r = rng.fork(i)
        x = sample_xpoint(ev, r)
        w = sample_w(ctx, r)
        u = (x.z * w).shift(1)
        s_val = x.z * (ctx.one() + w.shift(1))
        fs = f_series(ctx, x.z, 1, default_f_order(ctx.A, 1))
        got = fs[1].eval_at(u, target=1)
        ratio = (ctx.one() - s_val) * (ctx.one() - x.z).inv()
        expected = -padic_log(ratio)
        assert (got - expected).valuation_ge(min(got.abs_prec, expected.abs_prec))


def test_f_series_construction_inverse_check():
    # (d/du f_{k+1}) * (z+u) = f_k up to truncation
    ctx, ev = _setup(5, 3)
    rng = SplitMix64(7)
    z = sample_xpoint(ev, rng).z
    M = 12
    fs = f_series(ctx, z, 3, M=M)
    lin = TruncSeries.from_coeffs(ctx, "u", [z, ctx.one()], order=M)
    for k in range(3):
        lhs = series_mul(series_derivative(fs[k + 1]), lin)
        for j in range(M - 1):
            a, b = lhs.coeffs[j], fs[k].coeffs[j]
            shared = [prec for prec in (a.abs_prec, b.abs_prec) if prec is not None]
            if not shared:
                continue  # two exact zeros
            assert (a - b).valuation_ge(min(shared)), (k, j)


def test_df1_is_exactly_s_minus_z():
    # (1-S) f_0(z,S) + z(1-z) dz_1 = S - z
    ctx, ev = _setup(7, 1)
    rng = SplitMix64(8)
    for i in range(6):
        r = rng.fork(i)
        x = sample_xpoint(ev, r)
        w = sample_w(ctx, r)
        u = (x.z * w).shift(1)
        s_val = x.z * (ctx.one() + w.shift(1))
        M = default_f_order(ctx.A, 1)
        f0 = f_series(ctx, x.z, 0, M)[0].eval_at(u, target=1)
        dz1 = dz_series(ctx, x.z, 1, M).eval_at(u, target=1)
        df1 = (ctx.one() - s_val) * f0 + x.z * (ctx.one() - x.z) * dz1
        diff = df1 - (s_val - x.z)
        assert diff.valuation_ge(diff.abs_prec if not diff.exact else 5)


def test_dz_series_starts_at_order_one():
    ctx, ev = _setup(7, 1)
    z = sample_xpoint(ev, SplitMix64(9)).z
    for k in (0, -1):
        with pytest.raises(ValueError):
            dz_series(ctx, z, k, 10)


def test_section3_cells_build_only_what_they_read(monkeypatch):
    # a deterministic count, not a timing: delprop reads f_1..f_{n+1} about
    # the lift of each residue, so it integrates in u n+1 times per distinct
    # residue; f-lemmas reads f_0..f_n and dz_k at k = max(n, 1) about z, so
    # n + k - 1 times per record, and lifts each residue once per cell.  408
    # integrations in all; 530 when delprop built a family per record
    integrations, lifts = [0], [0]
    integrate, teichmuller = TruncSeries.integrate, coleman.teichmuller

    def counted_integrate(s, *args, **kwargs):
        integrations[0] += s.var == "u"  # the disc series of L_{n+1} run in w
        return integrate(s, *args, **kwargs)

    def counted_teichmuller(*args, **kwargs):
        lifts[0] += 1
        return teichmuller(*args, **kwargs)

    monkeypatch.setattr(TruncSeries, "integrate", counted_integrate)
    for module in (coleman, section3):
        monkeypatch.setattr(module, "teichmuller", counted_teichmuller, raising=False)
    total = 0
    for name, per_build in (("delprop", lambda n: n + 1),
                            ("f-lemmas", lambda n: n + max(n, 1) - 1)):
        for cell in CHECKS[name].full:
            integrations[0] = lifts[0] = 0
            report = CHECKS[name].run(**cell)
            recs = report["perSample"]
            residues = len({tuple(r["zbar"]) for r in recs})
            builds = residues if name == "delprop" else len(recs)
            assert report["pass"], cell
            assert integrations[0] == builds * per_build(cell["n"]), (name, cell)
            if name == "f-lemmas":
                assert lifts[0] == residues, cell
            total += integrations[0]
    assert total == 408


def test_delprop_zero_weight_reduces_to_li1():
    report = delprop_check(5, 0, samples=6, seed=11)
    assert report["pass"]


def test_delprop_small_cells():
    for p, n in ((7, 1), (7, 2), (11, 3)):
        report = delprop_check(p, n, samples=4, seed=12)
        assert report["pass"], (p, n)


def test_delprop_rejects_small_prime():
    with pytest.raises(ConfigError):
        delprop_check(5, 3)


def test_f_congruence_first_order_case():
    # n=1: p^{-1} f_1 = (z/(1-z)) w mod p
    report = f_lemmas_check(5, 1, samples=8, seed=13)
    assert report["pass"]
    assert all(r["congruenceOk"] for r in report["perSample"])


def test_single_point_lemma_interfaces():
    # one point (zbar, wz, w) drawn from SplitMix64(19), replayed at n = 1, 2, 3,
    # so that the Df bound runs at orders 1, 2 and 3
    ctx, ev = _setup(7, 2)
    rng = SplitMix64(19)
    zbar = sample_zbar(ctx, rng)
    wz, w = sample_w(ctx, rng), sample_w(ctx, rng)
    point = {"index": 0, "zbar": list(zbar.coeffs), "wz": wz.to_record(),
             "w": w.to_record()}
    for n in (1, 2, 3):
        report = f_lemmas_check(7, n, A=ctx.A, points=[point])
        (rec,) = report["perSample"]
        assert {key: rec[key] for key in ("zbar", "wz", "w")} == {
            key: point[key] for key in ("zbar", "wz", "w")}, n
        assert rec["dfOrder"] == n and report["params"]["dfOrder"] == n
        assert rec["congruenceOk"] and rec["dfValuationOk"] and rec["pass"], n
        assert rec["lhsResidue"] == rec["rhsResidue"], n


def test_f_lemmas_small_cells():
    for p, n in ((5, 0), (5, 2), (7, 3), (11, 2)):
        report = f_lemmas_check(p, n, samples=4, seed=14)
        assert report["pass"], (p, n)
        assert all(r["dfValuationOk"] for r in report["perSample"])


def test_e_recover_at_teichmuller_point():
    # with w = 0 both routes reduce to -n Li_n(alpha)
    ctx, ev = _setup(7, 2)
    alpha = ev.teich(ctx.residue_field.element(3))
    x = XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())
    route_f = ev.f_n_at(x, 2)
    expected = ctx.from_int(-2) * ev.li_n_teich(alpha, 2)
    assert (route_f - expected).valuation_ge(
        min(route_f.abs_prec, expected.abs_prec)
    )


def test_e_recover_sampled_cells():
    for p, n in ((7, 2), (7, 3)):
        report = e_recover_check(p, n, samples=5, seed=15)
        assert report["pass"], (p, n)


def test_w_zero_gives_trivial_difference():
    # replay hook: an explicit zero disc coordinate makes both delprop sides 0
    ctx, _ = _setup(7, 2)
    zero_w = ctx.exact_zero().to_record()
    points = [{"index": 0, "zbar": [3], "w": zero_w}]
    report = delprop_check(7, 2, points=points)
    assert report["pass"]


def test_l_value_increment_at_roots_of_unity():
    # p^{-n}(L_n(alpha(1+pw)) - L_n(alpha)) = -(-1)^n (alpha/(1-alpha)) w^n/n!
    # mod p: the computable form of "D L_n vanishes at roots of unity"
    import math as _math

    from polylogp.padic_core import residue

    for p, n in ((7, 2), (7, 3), (11, 3)):
        ctx = UnramifiedCtx(p, 1, default_precision(n) + 1)
        ev = PolylogEvaluator(ctx, default_riemann_m(n) + 1, max_weight=n)
        field = ctx.residue_field
        rng = SplitMix64(100 * p + n)
        for i in range(6):
            r = rng.fork(i)
            zbar = field.from_int(2 + r.below(p - 2))
            alpha = ev.teich(zbar)
            w = sample_w(ctx, r)
            x = XPoint.from_alpha_w(ctx, alpha, w)
            l_moved = ev.big_l_at(x, n)
            l_base = ev.li_n_teich(alpha, n)
            got = residue((l_moved - l_base).shift(-n))
            sign = -1 if n % 2 == 0 else 1
            expected = (
                residue(alpha * (ctx.one() - alpha).inv())
                * (residue(w) ** n)
                * field.element(sign)
                * field.element(_math.factorial(n) % p).inverse()
            )
            assert got == expected, (p, n, i)


def test_f_series_tail_soundness_spot_check():
    # extending the truncation stays inside the certified tail bound
    ctx, ev = _setup(5, 2)
    rng = SplitMix64(44)
    x = sample_xpoint(ev, rng)
    fs_short = f_series(ctx, x.z, 2, M=10)
    fs_long = f_series(ctx, x.z, 2, M=20)
    for i in range(8):
        r = rng.fork(i)
        w = sample_w(ctx, r)
        u = (x.z * w).shift(1)
        for k in (1, 2):
            tail_v = fs_short[k].tail_valuation_at(u.min_valuation
                                                   if not u.exact else 1)
            a = fs_short[k].eval_at(u, target=1)
            b = fs_long[k].eval_at(u, target=1)
            assert (a - b).valuation_ge(min(tail_v, a.abs_prec, b.abs_prec))
