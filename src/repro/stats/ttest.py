"""One-sample Student t-test with p-value and confidence interval.

Used by the hypothesis-testing step of the framework (paper §3.1: "the
acceptance or rejection result, p-value, and confidence interval are
returned"). scipy is not a dependency, so the Student-t distribution is
built here on the regularized incomplete beta function (a continued
fraction, ``_betainc_cf``) and ``math.lgamma``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    MAXIT, EPS, FPMIN = 300, 3e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise RuntimeError(f"betacf did not converge for a={a}, b={b}, x={x}")


def _lgamma_ratio(a: float, b: float) -> float:
    """ln Gamma(a + b) - ln Gamma(a) for a, b > 0.

    The two lgammas are each about a ln a, so their difference loses about
    a * 1e-16 to cancellation. From a = 100 on, the difference is taken
    from Stirling's series of both sides instead, with the leading terms
    cancelled analytically; the series' next term is below 1e-17 there.
    """
    if a < 100.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def tail(z: float) -> float:  # Stirling's series past (z - 1/2) ln z - z
        zz = z * z
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * zz)) / zz) / z

    c = a + b
    return (a - 0.5) * math.log1p(b / a) + b * math.log(c) - b + tail(c) - tail(a)


def _betainc_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) for 0 < x < 1 by its continued fraction, which converges
    fast where x < (a + 1)/(a + b + 2)."""
    ln_front = (
        _lgamma_ratio(max(a, b), min(a, b))
        - math.lgamma(min(a, b))
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    return math.exp(ln_front) * _betacf(a, b, x) / a


def t_cdf(t: float, df: float) -> float:
    """CDF of the Student-t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"t_cdf requires df > 0, got {df}")
    if t == 0.0:
        return 0.5
    # P(T <= t) via the incomplete beta: for t > 0,
    #   sf(t) = I_x(df/2, 1/2) / 2 = (1 - I_{1-x}(1/2, df/2)) / 2,
    # with x = df/(df+t^2). The first fraction converges fast past
    # t^2 = 3 df/(df + 2), the second short of it. Near x = 1, though, the
    # first loses about df * 1e-16 of relative precision, so past df = 1e4
    # the second serves all t^2 < 9 (sf > 1e-3), where it keeps about
    # 1e-12. It takes 1 - x = t^2/(df+t^2) directly, whose digits x loses.
    a, tt = df / 2.0, t * t
    x = df / (df + tt)
    if x < (a + 1.0) / (a + 2.5) and (df <= 1e4 or tt >= 9.0):
        p_tail = 0.5 * _betainc_cf(a, 0.5, x)
    else:
        p_tail = 0.5 - 0.5 * _betainc_cf(0.5, a, tt / (df + tt))
    return 1.0 - p_tail if t > 0 else p_tail


def t_sf(t: float, df: float) -> float:
    """Survival function P(T > t), by symmetry so that a small upper tail
    keeps its digits instead of rounding to 0 in 1 - cdf."""
    return t_cdf(-t, df)


def t_ppf(q: float, df: float) -> float:
    """Quantile (inverse CDF) for q in (0, 1), by Newton's method on
    :func:`t_cdf` from t = 0.

    On the root's side of 0 the CDF is concave (convex when q < 0.5), so
    every Newton step lands between the last iterate and the root: the
    iterates move monotonically toward it without a bracket.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"t_ppf requires 0 < q < 1, got {q}")
    # log of the density's normalising constant, Gamma((df+1)/2) /
    # (Gamma(df/2) sqrt(df pi)).
    ln_norm = _lgamma_ratio(df / 2.0, 0.5) - 0.5 * math.log(df * math.pi)
    t = 0.0
    for _ in range(100):
        pdf = math.exp(ln_norm - (df + 1.0) / 2.0 * math.log1p(t * t / df))
        step = (t_cdf(t, df) - q) / pdf
        t -= step
        # Newton's error after a step is O(step^2): a 1e-8 step leaves t
        # good to ~1e-15, and stays above t_cdf's rounding noise at large df.
        if abs(step) <= 1e-8 * max(1.0, abs(t)):
            return t
    raise RuntimeError(f"t_ppf did not converge for q={q}, df={df}")


@lru_cache(maxsize=None)
def _t_975(df: int) -> float:
    """The two-sided 95% quantile ``t_ppf(0.975, df)``, memoized: every
    test with n >= 2 and some spread asks for it, and df = n - 1 is below
    the sample size, so the cache holds few entries."""
    return t_ppf(0.975, df)


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
    tq = _t_975(df)  # two-sided 95% interval
    return TTestResult(n, mean, std, t, p, mean - tq * se, mean + tq * se)
