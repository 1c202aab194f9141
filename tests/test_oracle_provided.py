"""Sanity checks on the provided DuckDB oracle itself."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


class TestOracle:
    def test_passes_on_identical(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_catches_value_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": [1.0, 99.0]}))
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_catches_missing_row(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        df = spark.createDataFrame(pdf.head(1))
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_catches_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        df = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k FROM t", t=pdf)

    def test_row_order_irrelevant(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 3]})
        df = spark.createDataFrame(pd.DataFrame({"k": [3, 1, 2]}))
        assert_equivalent(df, "SELECT k FROM t", t=pdf)

    def test_spark_input_tables_accepted(self, spark):
        pdf = pd.DataFrame({"k": [1, 2]})
        sdf = spark.createDataFrame(pdf)
        assert_equivalent(sdf, "SELECT k FROM t", t=sdf)

    def test_pandas_result_accepted(self):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        assert_equivalent(pdf.iloc[::-1], "SELECT k, v FROM t", t=pdf)
        with pytest.raises(AssertionError):
            assert_equivalent(pdf.head(1), "SELECT k, v FROM t", t=pdf)
