"""Unit costs of the arithmetic layers, in microseconds per operation.

Each operation runs in a fixed loop at one stated context: W(F_{13^2}) mod
13^8 for the p-adic layer (the context of the heaviest gate cell, theorem
p=13 n=4 k=2) and F_{13^2} for the finite-field layer.  Operands come from
the seed.  The figure is the median over ``REPEATS`` timed loops.
"""

from __future__ import annotations

import random
import statistics
import time

P, K, A = 13, 2, 8
REPEATS = 5
# (metric name, loop length)
LOOPS = [
    ("padic_core.vec_mul.us", 20000),
    ("padic_core.WittApprox.mul.us", 5000),
    ("padic_core.WittApprox.add.us", 5000),
    ("padic_core.WittApprox.inv.us", 500),
    ("padic_core.teichmuller.us", 200),
    ("finite_poly.FpkElement.mul.us", 5000),
    ("finite_poly.FpkElement.inverse.us", 500),
    ("finite_poly.li_finite.us", 500),
]
CONTEXT = f"W(F_{{{P}^{K}}}) mod {P}^{A}; F_{{{P}^{K}}}; li_finite at weight 3"


def _operations(seed: int) -> dict:
    from polylogp.finite_poly import li_finite
    from polylogp.padic_core import UnramifiedCtx, teichmuller

    rng = random.Random(seed)
    ctx = UnramifiedCtx(P, K, A)
    field = ctx.residue_field

    def unit_vec():
        while True:
            vec = tuple(rng.randrange(ctx.pA) for _ in range(K))
            if any(c % P for c in vec):
                return vec

    a, b = unit_vec(), unit_vec()
    x, y = ctx.from_vec(a), ctx.from_vec(b)
    u = field.from_int(2 + rng.randrange(field.order - 2))
    v = field.from_int(2 + rng.randrange(field.order - 2))
    pA = ctx.pA
    return {
        "padic_core.vec_mul.us": lambda: ctx.vec_mul(a, b, pA),
        "padic_core.WittApprox.mul.us": lambda: x * y,
        "padic_core.WittApprox.add.us": lambda: x + y,
        "padic_core.WittApprox.inv.us": lambda: x.inv(),
        "padic_core.teichmuller.us": lambda: teichmuller(ctx, u),
        "finite_poly.FpkElement.mul.us": lambda: u * v,
        "finite_poly.FpkElement.inverse.us": lambda: u.inverse(),
        "finite_poly.li_finite.us": lambda: li_finite(3, u),
    }


def measure(seed: int) -> dict:
    """metric name -> median microseconds per operation."""
    ops = _operations(seed)
    out = {}
    for name, count in LOOPS:
        op = ops[name]
        loops = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(count):
                op()
            loops.append((time.perf_counter() - t0) / count * 1e6)
        out[name] = statistics.median(loops)
    return out
