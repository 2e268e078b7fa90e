"""Exact rational coefficient systems and combinatorial identities.

Everything here is prime-free: arbitrary-precision Fractions, fraction-free
elimination, and closed-form cross-checks.  The p-adic layer consumes these
coefficients after verifying their denominators avoid the working prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd


class SingularSystemError(ArithmeticError):
    """The coefficient system unexpectedly failed to have a unique solution."""


# -- exact linear algebra -----------------------------------------------------


def _clear_denominators(rows):
    out = []
    for row in rows:
        lcm = 1
        for x in row:
            d = Fraction(x).denominator
            lcm = lcm * d // gcd(lcm, d)
        out.append([int(Fraction(x) * lcm) for x in row])
    return out


def _bareiss(m: list, cols: int) -> list:
    """Fraction-free (Bareiss) forward elimination of the integer rows ``m``,
    in place, with pivots taken from the first ``cols`` columns.

    Returns the pivot columns; pivot i sits in row i, and every entry below
    it is 0.
    """
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            for j in range(c + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
    return pivots


def rank_exact(matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    m = _clear_denominators(matrix)
    return len(_bareiss(m, len(m[0]))) if m else 0


def solve_exact(matrix, rhs) -> list:
    """Unique exact solution of a square system, by fraction-free elimination."""
    n = len(matrix)
    aug = _clear_denominators(
        [list(row) + [b] for row, b in zip(matrix, rhs)]
    )
    pivots = _bareiss(aug, n)
    if len(pivots) < n:
        c = next((i for i, col in enumerate(pivots) if col != i), len(pivots))
        raise SingularSystemError(f"no pivot in column {c}")
    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(aug[i][n])
        for j in range(i + 1, n):
            s -= aug[i][j] * sol[j]
        sol[i] = s / aug[i][i]
    return sol


# -- the w-independence conditions and their unique solution ------------------


def a_coeffs(n: int) -> list:
    """Closed-form weights for the log-power polylog combination of weight n.

    a_0 = -n and a_k = (-1)^k/(k-1)! + (-1)^{k+1} n/k! for 0 < k < n.
    Computed once per weight; each call returns a fresh list.
    """
    return list(_a_coeffs(n))


@lru_cache(maxsize=None)
def _a_coeffs(n: int) -> tuple:
    if n < 2:
        raise ValueError("weight must be >= 2")
    out = [Fraction(-n)]
    for k in range(1, n):
        out.append(
            Fraction((-1) ** k, factorial(k - 1)) + Fraction((-1) ** (k + 1) * n, factorial(k))
        )
    return tuple(out)


def conds_matrix(n: int) -> list:
    """Rows l = 1..n-1 of the linear conditions on a_0..a_{n-1} (a_n = 0).

    Row l states sum_{k=0}^{l} (a_k + (k+1) a_{k+1}) / (l-k)! = 0.
    """
    rows = []
    for l in range(1, n):
        row = [Fraction(0)] * n
        for j in range(n):
            if j <= l:
                row[j] += Fraction(1, factorial(l - j))
            if 1 <= j <= l + 1:
                row[j] += Fraction(j, factorial(l - j + 1))
        rows.append(row)
    return rows


def conds_residuals(n: int, coeffs) -> list:
    """Residuals of the l = 1..n-1 conditions at the given a_0..a_{n-1}."""
    a = [Fraction(c) for c in coeffs] + [Fraction(0)]  # a_n = 0
    out = []
    for l in range(1, n):
        out.append(
            sum((a[k] + (k + 1) * a[k + 1]) / factorial(l - k) for k in range(l + 1))
        )
    return out


def solve_conds(n: int) -> list:
    """Solve the conditions plus the normalization a_0 + a_1 = -1, exactly.

    Raises SingularSystemError if the square system is singular, which would
    contradict uniqueness of the coefficient choice over Q.
    """
    if n < 2:
        raise ValueError("weight must be >= 2")
    rows = [[Fraction(1), Fraction(1)] + [Fraction(0)] * (n - 2)]
    rhs = [Fraction(-1)]
    rows += conds_matrix(n)
    rhs += [Fraction(0)] * (n - 1)
    return solve_exact(rows, rhs)


def conds_nullity(n: int) -> int:
    """Nullity of the homogeneous condition system (should be exactly 1)."""
    return n - rank_exact(conds_matrix(n))


def perturbation_detected(n: int) -> bool:
    """Each single-coefficient bump a_k -> a_k + 1 must break some condition."""
    base = a_coeffs(n)
    for k in range(n):
        bumped = list(base)
        bumped[k] += 1
        if all(r == 0 for r in conds_residuals(n, bumped)):
            return False
    return True


@dataclass
class GenFunctionReport:
    n: int
    mismatches: list

    @property
    def passed(self) -> bool:
        return not self.mismatches


def gen_function_check(n: int) -> GenFunctionReport:
    """Compare a_k against the expansion of -(n + t) e^{-t} through t^{n-1}."""
    a = a_coeffs(n)
    mism = []
    for k in range(n):
        expected = Fraction(-n * (-1) ** k, factorial(k))
        if k >= 1:
            expected -= Fraction((-1) ** (k - 1), factorial(k - 1))
        if a[k] != expected:
            mism.append({"k": k, "a_k": str(a[k]), "expected": str(expected)})
    return GenFunctionReport(n, mism)


# -- binomial constants from the two-point difference formula ----------------


def c_sum(n: int) -> Fraction:
    """sum_k (-1)^k (k!/(k+1)!) C(n,k); equals 1/(n+1)."""
    return sum(Fraction((-1) ** k * comb(n, k), k + 1) for k in range(n + 1))


def d_sum(n: int) -> Fraction:
    """sum_k (-1)^k (k!/(k+1)!) C(n,k) (n-k); equals 1 for n >= 1."""
    return sum(Fraction((-1) ** k * comb(n, k) * (n - k), k + 1) for k in range(n + 1))


def e_coeffs(n: int) -> list:
    """Weights e_0..e_n of the simplified combination: e_n = -n, e_{n-1} = -1."""
    if n < 2:
        raise ValueError("weight must be >= 2")
    out = [Fraction(0)] * (n + 1)
    out[n] = Fraction(-n)
    out[n - 1] = Fraction(-1)
    return out


# the binomial constants are checked for n = 1..CD_MAX
CD_MAX = 20


def _coefficient_system(n: int) -> dict:
    try:
        solved = solve_conds(n)
    except SingularSystemError as e:
        return {"error": str(e), "pass": False}
    rec = {
        "solveMatchesClosedForm": solved == a_coeffs(n),
        "nullityOne": conds_nullity(n) == 1,
        "perturbationDetected": perturbation_detected(n),
        "genFunctionOk": gen_function_check(n).passed,
    }
    return {**rec, "pass": all(rec.values())}


def _binomial_constants(n: int) -> dict:
    c_ok = c_sum(n) == Fraction(1, n + 1)
    d_ok = d_sum(n) == 1
    return {"cOk": c_ok, "dOk": d_ok, "pass": c_ok and d_ok}


def _simplified_weights(n: int) -> dict:
    e = e_coeffs(n)
    return {"pass": e[n] == -n and e[n - 1] == -1 and all(e[i] == 0 for i in range(n - 1))}


def identities_report(nmax: int = 12) -> dict:
    """Exact-rational verification bundle: unique solvability of the
    coefficient conditions, closed-form agreement, perturbation sensitivity,
    the generating-function expansion, and the two binomial constants."""
    from . import report as report_mod

    if nmax < 2:
        raise report_mod.ConfigError(f"identities needs --nmax >= 2, got {nmax}")
    families = (("coefficient-system", _coefficient_system, range(2, nmax + 1)),
                ("binomial-constants", _binomial_constants, range(1, CD_MAX + 1)),
                ("simplified-weights", _simplified_weights, range(2, nmax + 1)))
    items = [({"check": name, "n": n}, (measure, n))
             for name, measure, ns in families for n in ns]
    return report_mod.assemble(
        "identities", {"nmax": nmax, "cdMax": CD_MAX}, None,
        report_mod.records(items, lambda measure, n: measure(n)),
    )
