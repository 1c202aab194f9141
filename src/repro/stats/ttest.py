"""One-sample Student t-test with p-value and confidence interval.

Built on :mod:`repro.stats.special` (no scipy in the container). Used by
the hypothesis-testing step of the framework (paper §3.1: "the
acceptance or rejection result, p-value, and confidence interval are
returned").
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.special import betainc_reg


def t_cdf(t: float, df: float) -> float:
    """CDF of the Student-t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"t_cdf requires df > 0, got {df}")
    if t == 0.0:
        return 0.5
    # P(T <= t) via the incomplete beta: for t > 0,
    #   sf(t) = I_{df/(df+t^2)}(df/2, 1/2) / 2.
    x = df / (df + t * t)
    p_tail = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return 1.0 - p_tail if t > 0 else p_tail


def t_sf(t: float, df: float) -> float:
    """Survival function P(T > t)."""
    return 1.0 - t_cdf(t, df)


def t_ppf(q: float, df: float) -> float:
    """Quantile (inverse CDF) by bisection; q in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"t_ppf requires 0 < q < 1, got {q}")
    if q == 0.5:
        return 0.0
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a one-sample t-test against the constant ``c``."""

    n: int
    mean: float
    std: float  # sample std (ddof=1); 0.0 when n < 2
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float


def ttest_from_stats(
    n: int,
    mean: float,
    std: float,
    c: float,
    *,
    alternative: str = "greater",
) -> TTestResult:
    """One-sample t-test of H0: mean == ``c`` from summary statistics
    (n, mean, sample std), with a 95% confidence interval.

    This is what the framework uses: the estimator reduces the relevant
    instances to n/mean/std (:class:`~repro.core.estimator.Estimate`).
    ``alternative`` is one of ``greater``, ``less``, ``two-sided``
    (matching the hypothesis operators >, <, and =/<> respectively).
    Degenerate inputs (n < 2 or zero spread) get p-value 1.0 or 0.0 by
    direct comparison and a collapsed CI; their ``t_stat`` is ±inf
    (sign of mean − c) when n ≥ 2 and mean != c, else nan.
    """
    if n < 1:
        raise ValueError("ttest_from_stats requires n >= 1")
    se = std / math.sqrt(n) if n > 1 else 0.0
    if n < 2 or se == 0.0:
        t = math.copysign(math.inf, mean - c) if n > 1 and mean != c else math.nan
        if alternative == "greater":
            p = 0.0 if mean > c else 1.0
        elif alternative == "less":
            p = 0.0 if mean < c else 1.0
        else:
            p = 0.0 if mean != c else 1.0
        if n < 2:
            p = 1.0  # a single observation is never significant
        return TTestResult(n, mean, std if n > 1 else 0.0, t, p, mean, mean)
    df = n - 1
    t = (mean - c) / se
    if alternative == "greater":
        p = t_sf(t, df)
    elif alternative == "less":
        p = t_cdf(t, df)
    elif alternative == "two-sided":
        p = 2.0 * t_sf(abs(t), df)
    else:
        raise ValueError(f"unknown alternative: {alternative!r}")
    tq = t_ppf(0.975, df)  # two-sided 95% interval
    return TTestResult(n, mean, std, t, p, mean - tq * se, mean + tq * se)
