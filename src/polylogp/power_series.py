"""Truncated power series over the capped-precision p-adic layer.

A series stores coefficients c_0..c_M (each a WittApprox interval) together
with a certified affine tail bound: the true coefficient of every degree j
satisfies v_p(c_j) >= slope*j + offset, for all j >= 0.  The bound is what
makes evaluation on the closed unit disc sound: the contribution of the
unstored tail can be bounded ultrametrically and folded into the certified
precision of the result.

Composition rules are conservative; constructors that know a sharper bound
for the exact function they expand may install it with ``with_tail``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic_core import PrecisionError, UnramifiedCtx, WittApprox


@dataclass(frozen=True)
class TailBound:
    """v_p(true c_j) >= floor(slope*j + offset) for all j >= 0.

    ``offset None`` means the bound is +infinity (the zero series).
    """

    slope: Fraction
    offset: Fraction | None

    @staticmethod
    def zero_series() -> "TailBound":
        return TailBound(Fraction(0), None)

    def is_infinite(self) -> bool:
        return self.offset is None

    def add(self, other: "TailBound") -> "TailBound":
        if self.offset is None:
            return other
        if other.offset is None:
            return self
        return TailBound(min(self.slope, other.slope), min(self.offset, other.offset))

    def mul(self, other: "TailBound") -> "TailBound":
        if self.offset is None or other.offset is None:
            return TailBound.zero_series()
        return TailBound(min(self.slope, other.slope), self.offset + other.offset)

    def shift_offset(self, v) -> "TailBound":
        if self.offset is None or v is math.inf:
            return TailBound.zero_series()
        return TailBound(self.slope, self.offset + v)

    def derivative(self) -> "TailBound":
        if self.offset is None:
            return self
        return TailBound(self.slope, self.offset + self.slope)

    def integrate(self, p: int) -> "TailBound":
        # c_j -> c_{j-1}/j and v_p(j) <= j/(p-1) for j >= 1
        if self.offset is None:
            return self
        return TailBound(self.slope - Fraction(1, p - 1), self.offset - self.slope)


class TruncSeries:
    """Coefficients c_0..c_M in one variable, plus a certified tail bound."""

    __slots__ = ("ctx", "var", "coeffs", "tail")

    def __init__(self, ctx: UnramifiedCtx, var: str, coeffs, tail: TailBound):
        self.ctx = ctx
        self.var = var
        self.coeffs = tuple(coeffs)
        self.tail = tail

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_coeffs(ctx, var, coeffs, order=None, slope=Fraction(0)) -> "TruncSeries":
        """Series with explicitly known coefficients (an exact polynomial).

        The tail bound with the requested slope is fitted through the stored
        coefficients' certified valuations; true coefficients beyond the
        stored degree are zero, so any affine bound is valid there.
        """
        coeffs = list(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than the requested order")
            coeffs += [ctx.exact_zero()] * (order + 1 - len(coeffs))
        slope = Fraction(slope)
        offset = None
        for j, c in enumerate(coeffs):
            mv = c.min_valuation
            if mv is math.inf:
                continue
            cand = Fraction(mv) - slope * j
            offset = cand if offset is None else min(offset, cand)
        return TruncSeries(ctx, var, coeffs, TailBound(slope, offset))

    @staticmethod
    def geometric(ctx, var, ratio: WittApprox, order: int) -> "TruncSeries":
        """1 + q w + q^2 w^2 + ...; needs v_p(q) known exactly (or q = 0)."""
        if ratio.is_exact_zero:
            return TruncSeries.from_coeffs(ctx, var, [ctx.one()], order=order)
        v = ratio.valuation()
        coeffs = [ctx.one()]
        for _ in range(order):
            coeffs.append(coeffs[-1] * ratio)
        return TruncSeries(ctx, var, coeffs, TailBound(Fraction(v), Fraction(0)))

    def with_tail(self, slope, offset) -> "TruncSeries":
        """Install an externally justified tail bound (same coefficients)."""
        return TruncSeries(
            self.ctx, self.var, self.coeffs, TailBound(Fraction(slope), Fraction(offset))
        )

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if self.ctx != other.ctx:
            raise ValueError("series over different contexts")
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        m = min(self.order, other.order)
        coeffs = [self.coeffs[j] + other.coeffs[j] for j in range(m + 1)]
        return TruncSeries(self.ctx, self.var, coeffs, self.tail.add(other.tail))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.ctx, self.var, [-c for c in self.coeffs], self.tail)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        m = min(self.order, other.order)
        out = []
        for j in range(m + 1):
            acc = self.ctx.exact_zero()
            for i in range(j + 1):
                acc = acc + self.coeffs[i] * other.coeffs[j - i]
            out.append(acc)
        return TruncSeries(self.ctx, self.var, out, self.tail.mul(other.tail))

    def scalar_mul(self, c: WittApprox) -> "TruncSeries":
        tail = self.tail.shift_offset(c.min_valuation)
        return TruncSeries(self.ctx, self.var, [c * x for x in self.coeffs], tail)

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            coeffs = [self.ctx.exact_zero()]
        else:
            coeffs = [self.coeffs[j + 1] * (j + 1) for j in range(self.order)]
        return TruncSeries(self.ctx, self.var, coeffs, self.tail.derivative())

    def integrate(self) -> "TruncSeries":
        """Antiderivative with constant term 0; order grows by one."""
        coeffs = [self.ctx.exact_zero()]
        for j, c in enumerate(self.coeffs):
            coeffs.append(c / self.ctx.from_int(j + 1))
        return TruncSeries(self.ctx, self.var, coeffs, self.tail.integrate(self.ctx.p))

    # -- evaluation -------------------------------------------------------------

    def tail_valuation_at(self, w_val: int) -> int | None:
        """Certified v_p of sum_{j>M} c_j w^j when v_p(w) >= w_val (None = inf)."""
        if self.tail.is_infinite():
            return None
        sigma = self.tail.slope + w_val
        if sigma > 0:
            return math.floor(sigma * (self.order + 1) + self.tail.offset)
        if sigma == 0:
            return math.floor(self.tail.offset)
        raise PrecisionError(
            "tail bound diverges on the unit disc (negative combined slope)"
        )

    def eval_at(self, w: WittApprox, target: int) -> WittApprox:
        """Horner evaluation certified to absolute precision >= target.

        Raises PrecisionError when the tail cannot be certified below
        p^-target at this truncation order (rebuild with larger M).
        """
        if w.ctx != self.ctx:
            raise ValueError("evaluation point from a different context")
        if not w.is_exact_zero and w.min_valuation < 0:
            raise ValueError("evaluation requires |w| <= 1 (nonnegative valuation)")
        if w.is_exact_zero:
            return self.coeffs[0]
        tail_v = self.tail_valuation_at(w.min_valuation)
        if tail_v is not None and tail_v < target:
            raise PrecisionError(
                f"tail certifies only O(p^{tail_v}) < requested O(p^{target}); "
                f"increase the truncation order (currently {self.order})"
            )
        acc = self.coeffs[-1]
        for j in range(self.order - 1, -1, -1):
            acc = acc * w + self.coeffs[j]
        if tail_v is not None:
            acc = acc.cap_abs(tail_v)
        return acc

    # -- introspection -------------------------------------------------------

    def debug_info(self) -> dict:
        vals = []
        for j, c in enumerate(self.coeffs):
            mv = c.min_valuation
            vals.append(
                {
                    "j": j,
                    "minValuation": None if mv is math.inf else int(mv),
                    "absPrec": c.abs_prec,
                    "exactZero": c.is_exact_zero,
                }
            )
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
