"""The percentile rule used for every cell timing the benchmark reports.

A timing is reported as a median and as the highest percentile that still
has at least ten samples beyond it, with its sample count.  Percentiles are
Harrell-Davis estimates: a weighted mean of all order statistics, the i-th
of n weighted by the mass that Beta(q(n+1), (1-q)(n+1)) puts on
((i-1)/n, i/n].  The weights are concentrated on the ranks next to q*n.

Each cell is timed once per pass, and on a shared 2-vCPU host one timing of
a 0.1 s cell jitters by about 20% from pass to pass.  A nearest-rank
percentile reports a single such timing.  In ten one-pass runs of ``gate``,
the nearest-rank median of the cell times spread 0.21 (IQR over median),
the Harrell-Davis median 0.13 and the pass wall time 0.09.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
STEPS_PER_RANK = 32  # midpoint-rule steps per order statistic


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(ordered)
    a = q / 100 * (n + 1)
    b = (n + 1) - a
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    step = 1.0 / (n * STEPS_PER_RANK)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(STEPS_PER_RANK):
            x = (i * STEPS_PER_RANK + j + 0.5) * step
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above rank ceil(q/100 * n)."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100 * n))


def supported(n: int, q: float) -> bool:
    """Whether n samples support reporting the q-th percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND
