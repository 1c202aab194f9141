"""Unit tests for ``stats.ttest.betainc_reg``, the regularized incomplete
beta that the Student-t cdf is built on (no scipy on board, so these
verify against closed forms and math-module references)."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.ttest import betainc_reg


class TestBetaIncReg:
    def test_bounds(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, rel=1e-12)

    def test_symmetry(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a).
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.5, 0.2)]:
            assert betainc_reg(a, b, x) == pytest.approx(
                1.0 - betainc_reg(b, a, 1.0 - x), rel=1e-10
            )

    def test_arcsine_closed_form(self):
        # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x)).
        for x in (0.1, 0.4, 0.8):
            assert betainc_reg(0.5, 0.5, x) == pytest.approx(
                2.0 / math.pi * math.asin(math.sqrt(x)), rel=1e-10
            )

    def test_binomial_identity(self):
        # I_x(a, 1) = x^a.
        for a, x in [(3.0, 0.5), (7.5, 0.9)]:
            assert betainc_reg(a, 1.0, x) == pytest.approx(x**a, rel=1e-10)

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_in_x(self, a, b, x1, x2):
        lo, hi = sorted((x1, x2))
        assert betainc_reg(a, b, lo) <= betainc_reg(a, b, hi) + 1e-12

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_in_unit_interval(self, a, b, x):
        v = betainc_reg(a, b, x)
        assert -1e-12 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)])
    def test_rejects_bad_shape(self, a, b):
        with pytest.raises(ValueError):
            betainc_reg(a, b, 0.5)

    def test_rejects_x_outside_unit(self):
        with pytest.raises(ValueError):
            betainc_reg(1.0, 1.0, 1.5)
