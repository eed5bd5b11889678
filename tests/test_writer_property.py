"""Property: ``table_text`` writes CSV exactly as the csv module does.

Any header and records of ints (past 2**63 too), floats (NaN, the
infinities, -0.0, the smallest subnormal and the largest double included),
bools, numpy's float64 and int64, and strings that need quoting or hold
non-ASCII text give the bytes of the oracle, ``csv.writer`` with every
float written by ``real_text``.  The examples are fixed (derandomized, no
example database), so every run checks the same ones.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import csv_table_text  # noqa: E402

from logassign.experiment import table_text  # noqa: E402

TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "☃"])),
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", 'say "hi", twice', "pareto:1.5"]),
)

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     sys.float_info.max, -sys.float_info.max]),
)

FIELDS = st.one_of(
    st.integers(),
    st.integers(2**63 - 2, 2**70) | st.integers(-(2**70), -(2**63) + 2),
    FLOATS,
    st.booleans(),
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    TEXT,
)

TABLES = st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(TEXT, min_size=width, max_size=width),
    st.lists(st.lists(FIELDS, min_size=width, max_size=width).map(tuple), max_size=6),
))


# On a failure hypothesis imports libcst to write a patch, and libcst warns
# through mypy_extensions; under this suite's warnings-as-errors that
# warning would end the session in place of a failure report.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(table=TABLES)
def test_csv_tables_equal_the_csv_module(table) -> None:
    columns, records = table
    assert table_text(columns, records, "csv") == csv_table_text(columns, records)


def test_a_record_of_one_empty_field_is_quoted() -> None:
    assert table_text(("",), [("",), (1,)], "csv") == csv_table_text(("",), [("",), (1,)])
    assert table_text(("a",), [("",)], "csv") == 'a\n""\n'
