"""Exact capped-precision p-adic arithmetic and polylogarithm congruence checks.

The package has two arithmetic layers and a verification layer on top:

* ``finite_poly``  -- F_{p^k} in a polynomial basis, finite polylogarithms and
  both inversion identities in one pass over the field.  Its ring kernel
  (products, powers, the Witt Frobenius as a cached linear map, and unit
  inverses by the norm, Newton-lifted) serves both layers on
  (Z/p^r)[x]/(hbar): at r = 1 for F_{p^k} and at r <= A for W(F_{p^k}).
* ``padic_core``   -- Z_p / W(F_{p^k}) mod p^A with certified precision,
  Teichmuller lifts and the p-adic logarithm on 1 + pW.
* ``power_series`` -- truncated series over the p-adic layer with certified
  tail bounds, so evaluation on the closed unit disc is sound.
* ``coleman``      -- p-adic polylogarithms on the locus |z| = |z-1| = 1 via
  measure Riemann sums, the root-of-unity closed formula and disc series,
  plus the log-weighted combinations and their congruence checks.  Every
  value is a ``WittApprox`` carrying its certified precision.
* ``identities``   -- exact rational coefficient systems (no prime involved).
* ``section3``     -- iterated dlog integrals as an independent route to the
  same combinations, for cross-validation.
* ``matrix``       -- the check table: each check's driver and matrix cells.
* ``report``       -- canonical reports and the shared sampled driver.
* ``cli``          -- the ``polylogp`` verification harness.
"""

from .padic_core import (
    UnramifiedCtx,
    WittApprox,
    PrecisionError,
    teichmuller,
    padic_log,
    residue,
)
from .finite_poly import (
    FiniteField,
    FpkElement,
    li_finite,
    frobenius,
    sigma,
    check_inversion_identity,
    check_inversion_identity_frobenius,
)
from .power_series import TruncSeries
from .coleman import XPoint, PolylogEvaluator
from . import identities

__all__ = [
    "UnramifiedCtx",
    "WittApprox",
    "PrecisionError",
    "teichmuller",
    "padic_log",
    "residue",
    "FiniteField",
    "FpkElement",
    "li_finite",
    "frobenius",
    "sigma",
    "check_inversion_identity",
    "check_inversion_identity_frobenius",
    "TruncSeries",
    "XPoint",
    "PolylogEvaluator",
    "identities",
]
