"""Statistics substrate: special functions, the one-sample t-test and
(in :mod:`repro.stats.proportion`) the Wilson interval for accuracy
proportions.

The container has no scipy, so the regularized incomplete beta function
(and the Student-t distribution built on it) is implemented here from
scratch and unit-tested against closed forms.
"""
from repro.stats.special import betainc_reg, log_gamma  # noqa: F401
from repro.stats.ttest import TTestResult, one_sample_ttest, t_cdf, t_ppf  # noqa: F401
