"""Unit tests for ``stats.ttest._betainc_cf``, the regularized incomplete
beta I_x(a, b) that the Student-t cdf is built on (no scipy on board, so
these verify against closed forms and math-module references). Every x
lies in the continued fraction's convergent region, x < (a + 1)/(a + b + 2),
where ``t_cdf`` calls it."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.ttest import _betainc_cf


def _in_region(a: float, b: float, u: float) -> float:
    """The point a share ``u`` of the way from 0 to the region's edge."""
    return u * (a + 1.0) / (a + b + 2.0)


class TestBetaIncReg:
    def test_uniform_case(self):
        # I_x(1, 1) = x.
        for x in (0.1, 0.25, 0.45):
            assert _betainc_cf(1.0, 1.0, x) == pytest.approx(x, rel=1e-12)

    def test_arcsine_closed_form(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x)).
        for x in (0.1, 0.3, 0.45):
            assert _betainc_cf(0.5, 0.5, x) == pytest.approx(
                2.0 / math.pi * math.asin(math.sqrt(x)), rel=1e-10
            )

    def test_binomial_identity(self):
        # I_x(a, 1) = x^a.
        for a, x in [(3.0, 0.5), (7.5, 0.8)]:
            assert _betainc_cf(a, 1.0, x) == pytest.approx(x**a, rel=1e-10)

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_in_x(self, a, b, u1, u2):
        lo, hi = sorted((u1, u2))
        assert _betainc_cf(a, b, _in_region(a, b, lo)) <= (
            _betainc_cf(a, b, _in_region(a, b, hi)) + 1e-12
        )

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_in_unit_interval(self, a, b, u):
        v = _betainc_cf(a, b, _in_region(a, b, u))
        assert -1e-12 <= v <= 1.0 + 1e-12
