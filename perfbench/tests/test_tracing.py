import pytest

from tracing import SpanRecorder, installed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    # g_series -> li_tilde -> li_n_teich -> li_p_riemann (twice)
    def li_p_riemann():
        clock.advance(5)

    li_p_riemann = rec.wrap("li_p_riemann", li_p_riemann)

    def li_n_teich():
        clock.advance(1)
        li_p_riemann()
        li_p_riemann()
        clock.advance(1)

    li_n_teich = rec.wrap("li_n_teich", li_n_teich)

    def li_tilde():
        clock.advance(0.5)
        li_n_teich()

    li_tilde = rec.wrap("li_tilde", li_tilde)

    def g_series():
        clock.advance(2)
        li_tilde()
        clock.advance(3)

    g_series = rec.wrap("g_series", g_series)
    g_series()

    summary = rec.summary()
    assert summary["li_p_riemann"] == (2, 10.0, 10.0)
    assert summary["li_n_teich"] == (1, 2.0, 12.0)
    assert summary["li_tilde"] == (1, 0.5, 12.5)
    assert summary["g_series"] == (1, 5.0, 17.5)
    assert sum(rec.self_times()) == pytest.approx(clock.now)


def test_self_time_of_recursive_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def countdown(n):
        clock.advance(1)
        if n:
            countdown(n - 1)
        clock.advance(0.5)

    countdown = rec.wrap("countdown", countdown)
    countdown(4)

    calls, self_s, total_s = rec.summary()["countdown"]
    assert calls == 5
    assert self_s == pytest.approx(7.5)
    # the outermost span only: recursion is not counted twice
    assert total_s == pytest.approx(7.5)
    assert list(rec.parent) == [-1, 0, 1, 2, 3]


def test_spans_record_parent_and_cell_and_survive_exceptions():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf():
        clock.advance(1)
        raise ArithmeticError("precision")

    leaf = rec.wrap("leaf", leaf)

    def check():
        clock.advance(1)
        try:
            leaf()
        except ArithmeticError:
            pass

    check = rec.wrap("check", check)
    rec.cell_id = 7
    check()
    assert list(rec.parent) == [-1, 0]
    assert list(rec.cell) == [7, 7]
    assert list(rec.end) == [2.0, 2.0]
    assert rec.summary()["check"] == (1, 1.0, 2.0)


def test_installed_wraps_every_binding_and_restores_it():
    import polylogp
    from polylogp import coleman, finite_poly

    original = finite_poly.li_finite
    rec = SpanRecorder()
    targets = [("finite_poly.li_finite", "finite_poly", "li_finite"),
               ("padic_core.WittApprox.inv", "padic_core", "WittApprox.inv"),
               ("coleman.gone", "coleman", "PolylogEvaluator.gone")]
    with installed(rec, targets) as missing:
        assert coleman.li_finite is finite_poly.li_finite is polylogp.li_finite
        assert coleman.li_finite is not original
        field = finite_poly.FiniteField(5, 2)
        coleman.li_finite(2, field.from_int(7))
        finite_poly.check_inversion_identity(2, finite_poly.FiniteField(5, 1))
    assert missing == ["coleman.gone"]
    assert finite_poly.li_finite is original and coleman.li_finite is original
    assert polylogp.li_finite is original
    calls, _, _ = rec.summary()["finite_poly.li_finite"]
    assert calls == 1 + 2 * 4  # one direct call, two per unit of F_5
