"""Unit tests for the Student-t substrate and the one-sample t-test."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ttest as ttest_module
from repro.stats.ttest import t_cdf, t_ppf, t_sf, ttest_from_stats


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _ttest_of(xs, c, *, alternative="greater"):
    """``ttest_from_stats`` on the n, mean and ddof-1 std of ``xs``."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    mean = float(xs.mean()) if n else 0.0
    std = float(xs.std(ddof=1)) if n > 1 else 0.0
    return ttest_from_stats(n, mean, std, c, alternative=alternative)


class TestTCdf:
    def test_df1_is_cauchy(self):
        # t with df=1 is Cauchy: CDF = 1/2 + arctan(t)/pi.
        for t in (-3.0, -0.5, 0.0, 1.0, 5.0):
            assert t_cdf(t, 1) == pytest.approx(
                0.5 + math.atan(t) / math.pi, rel=1e-9, abs=1e-9
            )

    def test_df2_closed_form(self):
        # CDF(t; 2) = 1/2 + t / (2*sqrt(2 + t^2)).
        for t in (-2.0, 0.3, 4.0):
            assert t_cdf(t, 2) == pytest.approx(
                0.5 + t / (2.0 * math.sqrt(2.0 + t * t)), rel=1e-9
            )

    def test_large_df_approaches_normal(self):
        for t in (-1.96, 0.0, 1.0, 2.5):
            assert t_cdf(t, 100000) == pytest.approx(_norm_cdf(t), abs=1e-4)

    def test_symmetry(self):
        for df in (1, 5, 30):
            for t in (0.7, 2.2):
                assert t_cdf(-t, df) == pytest.approx(1.0 - t_cdf(t, df), abs=1e-12)

    def test_at_zero(self):
        assert t_cdf(0.0, 7) == 0.5

    def test_known_critical_value(self):
        # t_{0.975, 10} = 2.228139 (standard tables).
        assert t_sf(2.228139, 10) == pytest.approx(0.025, abs=1e-4)

    def test_sf_keeps_small_upper_tail(self):
        # P(T > 10) at df = 100 is 4.95084e-17; 1 - cdf would round it to 0.
        assert t_sf(10, 100) == pytest.approx(4.95084e-17, rel=1e-6, abs=0)

    def test_centre_keeps_its_digits(self):
        # Near 0 the CDF is 1/2 + f(0) t; at large df, 1 - df/(df + t^2)
        # rounds away most of t^2/df.
        df, t = 100000, 1e-6
        f0 = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
        assert t_cdf(t, df) - 0.5 == pytest.approx(f0 * t, rel=1e-6)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    @pytest.mark.parametrize("t, df, want", [
        # 40-digit mpmath values of the incomplete-beta form.
        (-1.96, 1e5, 0.024999281597150819),
        (-3.0, 1e4, 0.0013532240949988331),
        (1.0, 1e5, 0.84134353621794499),
        (-10.0, 1e5, 7.816507650103639e-24),
    ])
    def test_large_df_reference_values(self, t, df, want):
        assert t_cdf(t, df) == pytest.approx(want, rel=1e-12)

    def test_huge_df_is_the_normal_limit(self):
        # Taken directly at df = 1e9, lgamma(a + 1/2) - lgamma(a) cancels
        # to ~1e-8. The exact gap to the normal cdf is about 1.4e-10 here.
        assert abs(t_cdf(1.959963984540054, 1e9) - 0.975) < 1e-9


class TestTPpf:
    @pytest.mark.parametrize("df", [1, 2, 5, 30, 200])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8, 0.975, 0.999])
    def test_roundtrip(self, df, q):
        assert t_cdf(t_ppf(q, df), df) == pytest.approx(q, abs=1e-7)

    def test_known_quantiles(self):
        assert t_ppf(0.975, 10) == pytest.approx(2.228139, abs=1e-4)
        assert t_ppf(0.95, 5) == pytest.approx(2.015048, abs=1e-4)
        assert t_ppf(0.5, 3) == pytest.approx(0.0, abs=1e-9)
        assert t_ppf(0.975, 1) == pytest.approx(12.706205, abs=1e-6)
        assert t_ppf(0.975, 30) == pytest.approx(2.042272, abs=1e-6)
        assert t_ppf(0.975, 1000) == pytest.approx(1.962339, abs=1e-6)

    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_inverts_cdf_in_few_steps(self, q, df):
        calls = []

        def counting_cdf(t, d):
            calls.append(t)
            return t_cdf(t, d)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ttest_module, "t_cdf", counting_cdf)
            t = t_ppf(q, df)
        assert abs(t_cdf(t, df) - q) <= 1e-9
        assert len(calls) <= 15

    def test_huge_df_is_the_normal_quantile(self):
        # The exact gap to the normal quantile is about 2.4e-10 at df = 1e10.
        assert abs(t_ppf(0.975, 1e10) - 1.959963984540054) < 1e-9

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            t_ppf(0.0, 5)
        with pytest.raises(ValueError):
            t_ppf(1.0, 5)


class TestOneSampleTTest:
    def test_known_example(self):
        # Hand-checked: xs mean=5.0, std=sqrt(2.5), n=5 vs c=3 ->
        # t = 2 / (sqrt(2.5)/sqrt(5)) = 2.8284.
        xs = [3.0, 4.0, 5.0, 6.0, 7.0]
        r = _ttest_of(xs, 3.0, alternative="greater")
        assert r.mean == pytest.approx(5.0)
        assert r.t_stat == pytest.approx(2.8284, abs=1e-3)
        assert r.p_value == pytest.approx(0.0237, abs=2e-3)  # sf(2.828, df=4)
        assert r.p_value < 0.05

    def test_two_sided_doubles_tail(self):
        xs = [3.0, 4.0, 5.0, 6.0, 7.0]
        g = _ttest_of(xs, 3.0, alternative="greater")
        two = _ttest_of(xs, 3.0, alternative="two-sided")
        assert two.p_value == pytest.approx(2 * g.p_value, rel=1e-9)

    def test_less_alternative(self):
        xs = [1.0, 2.0, 3.0]
        r = _ttest_of(xs, 10.0, alternative="less")
        assert r.p_value < 0.05

    def test_ci_contains_mean(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(10, 2, 50).tolist()
        r = _ttest_of(xs, 9.0)
        assert r.ci_low < r.mean < r.ci_high

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        small = _ttest_of(rng.normal(0, 1, 10).tolist(), 0)
        big = _ttest_of(rng.normal(0, 1, 1000).tolist(), 0)
        assert (big.ci_high - big.ci_low) < (small.ci_high - small.ci_low)

    def test_single_value_never_significant(self):
        r = _ttest_of([5.0], 1.0)
        assert r.p_value == 1.0
        assert math.isnan(r.t_stat)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _ttest_of([], 0.0)

    def test_constant_values_degenerate(self):
        r = _ttest_of([4.0, 4.0, 4.0], 1.0, alternative="greater")
        assert r.p_value == 0.0
        assert r.t_stat == math.inf
        r2 = _ttest_of([4.0, 4.0, 4.0], 9.0, alternative="greater")
        assert r2.p_value == 1.0
        assert r2.t_stat == -math.inf  # the mean is below c
        assert math.isnan(_ttest_of([4.0, 4.0, 4.0], 4.0).t_stat)

    def test_unknown_alternative(self):
        with pytest.raises(ValueError):
            _ttest_of([1.0, 2.0], 0.0, alternative="sideways")


class TestFromStats:
    def test_matches_value_version(self):
        # Hand-computed: n = 5, mean 5, std sqrt(2.5) against c = 3.
        r = ttest_from_stats(5, 5.0, math.sqrt(2.5), 3.0)
        assert r.t_stat == pytest.approx(2.828427, abs=1e-6)
        assert r.p_value == pytest.approx(0.023710, abs=1e-6)
        assert (r.ci_low, r.ci_high) == pytest.approx((3.036757, 6.963243), abs=1e-6)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            ttest_from_stats(0, 0.0, 1.0, 0.0)

    def test_p_decreases_with_n(self):
        ps = [ttest_from_stats(n, 1.0, 2.0, 0.0).p_value for n in (5, 50, 500)]
        assert ps[0] > ps[1] > ps[2]

    def test_tiny_p_value_stays_positive(self):
        # t = 14.1 at df = 199: p is about 1e-32, far below 1 - cdf's reach.
        assert ttest_from_stats(200, 5.0, 1.0, 4.0).p_value > 0.0


class TestWilsonInterval:
    @pytest.mark.parametrize(
        "k,n,lo,hi",
        # Reference values of the Wilson score interval at z = 1.96.
        [(0, 10, 0.0, 0.2775), (10, 10, 0.7225, 1.0), (5, 10, 0.2366, 0.7634),
         (27, 30, 0.7438, 0.9654)],
    )
    def test_reference_values(self, k, n, lo, hi):
        from repro.stats.proportion import wilson_interval

        got = wilson_interval(k, n)
        assert got == pytest.approx((lo, hi), abs=1e-4)

    def test_brackets_the_proportion(self):
        from repro.stats.proportion import wilson_interval

        for n in (1, 3, 30):
            for k in range(n + 1):
                lo, hi = wilson_interval(k, n)
                assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_no_trials_raises(self):
        from repro.stats.proportion import wilson_interval

        with pytest.raises(ValueError):
            wilson_interval(0, 0)
