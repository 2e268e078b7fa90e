"""Exact capped-precision p-adic arithmetic and polylogarithm congruence checks.

The package has two arithmetic layers and a verification layer on top:

* ``finite_poly``  -- F_{p^k} in a polynomial basis, finite polylogarithms.
* ``padic_core``   -- Z_p / W(F_{p^k}) mod p^A with certified precision,
  Teichmuller lifts and the p-adic logarithm on 1 + pW.
* ``power_series`` -- truncated series over the p-adic layer with certified
  tail bounds, so evaluation on the closed unit disc is sound.
* ``coleman``      -- p-adic polylogarithms on the locus |z| = |z-1| = 1 via
  measure Riemann sums, the root-of-unity closed formula and disc series,
  plus the log-weighted combinations and their congruence checks.
* ``identities``   -- exact rational coefficient systems (no prime involved).
* ``section3``     -- iterated dlog integrals as an independent route to the
  same combinations, for cross-validation.
* ``cli``          -- the ``polylogp`` verification harness.
"""

from .padic_core import (
    UnramifiedCtx,
    WittApprox,
    PrecisionError,
    make_ctx,
    teichmuller,
    padic_log,
    residue,
)
from .finite_poly import FiniteField, FpkElement, li_finite, sigma
from .power_series import TruncSeries
from .coleman import XPoint, PolylogValue, PolylogEvaluator
from . import identities

__all__ = [
    "UnramifiedCtx",
    "WittApprox",
    "PrecisionError",
    "make_ctx",
    "teichmuller",
    "padic_log",
    "residue",
    "FiniteField",
    "FpkElement",
    "li_finite",
    "sigma",
    "TruncSeries",
    "XPoint",
    "PolylogValue",
    "PolylogEvaluator",
    "identities",
]
