"""Confidence interval for a binomial proportion (accuracy cells)."""
from __future__ import annotations

import math

Z95 = 1.959963984540054  # standard-normal 97.5% quantile


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for ``k`` successes in ``n`` trials.
    Unlike the normal approximation it stays inside [0, 1] and has
    width > 0 at k = 0 and k = n."""
    if n <= 0:
        raise ValueError("need n >= 1 trials")
    p = k / n
    z2 = Z95 * Z95
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    # The bounds are exact at k = 0 and k = n; rounding would miss them.
    lo = 0.0 if k == 0 else centre - half
    hi = 1.0 if k == n else centre + half
    return lo, hi
