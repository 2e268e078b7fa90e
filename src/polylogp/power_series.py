"""Truncated power series over the capped-precision p-adic layer.

A series stores coefficients c_0..c_M (each an interval state) together
with a certified affine tail bound: the true coefficient of every degree j
satisfies v_p(c_j) >= slope*j + offset, for all j >= 0.  The bound is what
makes evaluation on the closed unit disc sound: the contribution of the
unstored tail can be bounded ultrametrically and folded into the certified
precision of the result.

Both series routes are built by dlog-weighted integration, so three
operations suffice: ``over_linear(q)`` divides by (1 - q*var) and lowers the
slope to at most v_p(q); ``scalar_mul(c)`` adds v_p(c) to the offset;
``integrate(slope, offset)`` installs the bound its caller proves for the
antiderivative of the exact function it expands.  Constructors that know a
sharper bound for a series may also install it with ``with_tail``.

Series hold raw states (``WittApprox.state``), and ``coeffs`` builds values
on read.  One fold, h_j = c_j + q*h_{j-1}, is both ``over_linear`` and the
Horner loop of ``eval_at``; one map, c_j * f_j, is both ``scalar_mul`` and
``integrate``.  Both take and return states through the interval rules of
``padic_core``, the steps of the per-operation loops; ``eval_at`` wraps only
its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic_core import PrecisionError, UnramifiedCtx, WittApprox, add_states, mul_states


def fold(ctx: UnramifiedCtx, q, states) -> list:
    """The states h_0 = c_0, h_j = c_j + q*h_{j-1}, for states q and c_j."""
    h = states[0]
    out = [h]
    for c in states[1:]:
        h = add_states(ctx, c, mul_states(ctx, q, h))
        out.append(h)
    return out


def scale_each(ctx: UnramifiedCtx, states, factors) -> list:
    """The states c_j * f_j, for states c_j and f_j."""
    return [mul_states(ctx, c, f) for c, f in zip(states, factors)]


@dataclass(frozen=True)
class TailBound:
    """v_p(true c_j) >= floor(slope*j + offset) for all j >= 0, for a Fraction
    or int slope and offset; ``offset None`` means +infinity (the zero series).
    """

    slope: Fraction | int
    offset: Fraction | int | None

    @staticmethod
    def zero_series() -> "TailBound":
        return TailBound(0, None)

    def is_infinite(self) -> bool:
        return self.offset is None

    def shift_offset(self, v) -> "TailBound":
        if self.offset is None or v is math.inf:
            return TailBound.zero_series()
        return TailBound(self.slope, self.offset + v)


class TruncSeries:
    """Coefficients c_0..c_M in one variable, plus a certified tail bound."""

    __slots__ = ("ctx", "var", "states", "tail")

    def __init__(self, ctx: UnramifiedCtx, var: str, coeffs, tail: TailBound):
        self.ctx = ctx
        self.var = var
        self.states = tuple([c.state for c in coeffs])
        self.tail = tail

    @property
    def coeffs(self) -> tuple:
        """The coefficient values, built on each read."""
        return tuple([self.ctx.wrap(h) for h in self.states])

    @property
    def order(self) -> int:
        return len(self.states) - 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_states(ctx: UnramifiedCtx, var: str, states, tail: TailBound) -> "TruncSeries":
        """The series of the given coefficient states; ``__init__`` takes values."""
        s = TruncSeries.__new__(TruncSeries)
        s.ctx, s.var, s.states, s.tail = ctx, var, tuple(states), tail
        return s

    @staticmethod
    def from_coeffs(ctx, var, coeffs, order=None, slope=0) -> "TruncSeries":
        """Series with explicitly known coefficients (an exact polynomial).

        The tail bound with the requested slope a/b is fitted through the
        stored coefficients' certified valuations, min (b scale_j - a j)/b;
        true coefficients beyond the stored degree are zero, so any affine
        bound is valid there.
        """
        coeffs = list(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than the requested order")
            coeffs += [ctx.exact_zero()] * (order + 1 - len(coeffs))
        a, b = slope.numerator, slope.denominator
        nums = [b * c.scale - a * j for j, c in enumerate(coeffs) if not c.exact]
        offset = None if not nums else min(nums) if b == 1 else Fraction(min(nums), b)
        return TruncSeries(ctx, var, coeffs, TailBound(slope, offset))

    def with_tail(self, slope, offset) -> "TruncSeries":
        """Install an externally justified tail bound (same coefficients)."""
        return TruncSeries.from_states(self.ctx, self.var, self.states, TailBound(slope, offset))

    # -- arithmetic ------------------------------------------------------------

    def _check(self, x: WittApprox):
        if x.ctx != self.ctx:
            raise ValueError("operand from a different context")

    def over_linear(self, q: WittApprox) -> "TruncSeries":
        """self / (1 - q*var) by h_j = c_j + q*h_{j-1}; needs v_p(q) >= 0 known
        exactly (or q = 0)."""
        self._check(q)
        if q.exact:
            return self
        v = q.valuation()
        if v < 0:
            raise ValueError(f"1/(1 - q*{self.var}) diverges on the unit disc: v_p(q) = {v}")
        tail = TailBound(min(self.tail.slope, v), self.tail.offset)
        states = fold(self.ctx, q.state, self.states)
        return TruncSeries.from_states(self.ctx, self.var, states, tail)

    def scalar_mul(self, c: WittApprox) -> "TruncSeries":
        self._check(c)
        tail = self.tail.shift_offset(c.min_valuation)
        states = scale_each(self.ctx, self.states, [c.state] * len(self.states))
        return TruncSeries.from_states(self.ctx, self.var, states, tail)

    def integrate(self, slope, offset) -> "TruncSeries":
        """Antiderivative with constant term 0, truncated to the same order,
        carrying the tail bound (slope, offset) that the caller proves for it.

        No bound is derived from the integrand's: each caller installs the one
        it proves for the exact function it expands, and its docstring gives
        the proof.  Coefficient j is multiplied by 1/(j+1) from the context's
        cache (``UnramifiedCtx.inv_states``), so each inverse is Newton-lifted
        once per context, not once per integration.
        """
        ctx = self.ctx
        states = scale_each(ctx, self.states[:-1], ctx.inv_states(self.order))
        return TruncSeries.from_states(ctx, self.var, (None, *states), TailBound(slope, offset))

    # -- evaluation -------------------------------------------------------------

    def tail_valuation_at(self, w_val: int) -> int | None:
        """Certified v_p of sum_{j>M} c_j w^j when v_p(w) >= w_val (None = inf): for
        slope a/b and offset c/d, floor(((a + w_val b)(M+1) d + c b) / (b d))."""
        if self.tail.is_infinite():
            return None
        (a, b), (c, d) = self.tail.slope.as_integer_ratio(), self.tail.offset.as_integer_ratio()
        sigma_b = a + w_val * b
        if sigma_b > 0:
            return (sigma_b * (self.order + 1) * d + c * b) // (b * d)
        if sigma_b == 0:
            return c // d
        raise PrecisionError("tail bound diverges on the unit disc (negative combined slope)")

    def eval_at(self, w: WittApprox, target: int) -> WittApprox:
        """Horner evaluation certified to absolute precision >= target.

        Raises PrecisionError when the tail cannot be certified below
        p^-target at this truncation order (rebuild with larger M).
        """
        self._check(w)
        if not w.exact and w.min_valuation < 0:
            raise ValueError("evaluation requires |w| <= 1 (nonnegative valuation)")
        if w.exact:
            return self.ctx.wrap(self.states[0])
        tail_v = self.tail_valuation_at(w.min_valuation)
        if tail_v is not None and tail_v < target:
            raise PrecisionError(
                f"tail certifies only O(p^{tail_v}) < requested O(p^{target}); "
                f"increase the truncation order (currently {self.order})"
            )
        acc = self.ctx.wrap(fold(self.ctx, w.state, self.states[::-1])[-1])
        if tail_v is not None:
            acc = acc.cap_abs(tail_v)
        return acc

    # -- introspection -------------------------------------------------------

    def debug_info(self) -> dict:
        vals = [{"j": j, "minValuation": None if c.exact else c.scale,
                 "absPrec": c.abs_prec, "exactZero": c.exact}
                for j, c in enumerate(self.coeffs)]
        return {
            "var": self.var,
            "order": self.order,
            "tailSlope": None if self.tail.is_infinite() else str(self.tail.slope),
            "tailOffset": None if self.tail.is_infinite() else str(self.tail.offset),
            "coefficients": vals,
        }

    def __repr__(self):
        return (
            f"TruncSeries(var={self.var!r}, order={self.order}, "
            f"tail={self.tail.slope}*j+{self.tail.offset})"
        )
