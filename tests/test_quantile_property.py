"""Property: the certified quantile solver returns plain bisection's results.

Any built-in law and any list of levels in (0, 1), near 1 and tiny ones
included, give ``tail_quantiles`` exactly the results of the oracle's
lockstep bisection, field for field, or make both raise ``BracketError``.
A subclass of a built-in law, which states no error bound, also evaluates
exactly the oracle's points.  The examples are fixed (derandomized, no
example database), so every run checks the same ones.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import lockstep_bisection  # noqa: E402

from logassign import (  # noqa: E402
    BracketError,
    ConstantGain,
    ExponentialGain,
    GainModel,
    ParetoGain,
    UniformGain,
    parse_model_spec,
    tail_quantiles,
)

LAWS = st.one_of(
    st.floats(-3.0, math.log10(1e223)).map(lambda e: f"constant:{10.0 ** e!r}"),
    st.sampled_from(["exp", "uniform"]),
    st.floats(1.06, 106.0).map(lambda alpha: f"pareto:{alpha!r}"),
)

LEVELS = st.lists(
    st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        # Every scale down to the smallest subnormal, and just below 1.
        st.floats(-744.0, -1e-15).map(math.exp).filter(lambda p: p > 0.0),
        st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
    ),
    min_size=1, max_size=60,
)


# On a failure hypothesis imports libcst to write a patch, and libcst warns
# through mypy_extensions; under this suite's warnings-as-errors that
# warning would end the session in place of a failure report.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=LAWS, levels=LEVELS)
def test_certified_bisection_equals_plain_bisection_on_any_levels(spec: str,
                                                                  levels: list[float]) -> None:
    model = parse_model_spec(spec)
    try:
        expected = lockstep_bisection(model, levels)
    except BracketError:
        with pytest.raises(BracketError):
            tail_quantiles(model, levels)
        return
    assert tail_quantiles(model, levels) == expected


# Every array of rho that a _Recorded law evaluates, in order.
_EVALUATED: list[np.ndarray] = []


class _Recorded(GainModel):
    """Records each array of rho that the solver evaluates.

    Mixed into a built-in law, it makes a subclass, which states no error
    bound and so certifies no point.
    """

    def _log_laplace_values(self, rho):
        _EVALUATED.append(rho.copy())
        return super()._log_laplace_values(rho)


class RecordedConstant(_Recorded, ConstantGain):
    pass


class RecordedExponential(_Recorded, ExponentialGain):
    pass


class RecordedUniform(_Recorded, UniformGain):
    pass


class RecordedPareto(_Recorded, ParetoGain):
    pass


RECORDED = {ConstantGain: RecordedConstant, ExponentialGain: RecordedExponential,
            UniformGain: RecordedUniform, ParetoGain: RecordedPareto}


def _evaluated(solve, model, levels):
    """The results of ``solve(model, levels)``, or its BracketError, and the arrays it evaluates."""
    _EVALUATED.clear()
    try:
        outcome = solve(model, levels)
    except BracketError as exc:
        outcome = type(exc)
    return outcome, _EVALUATED[:]


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(spec=LAWS, levels=LEVELS)
def test_a_law_with_no_stated_bound_evaluates_the_points_of_plain_bisection(
        spec: str, levels: list[float]) -> None:
    law = parse_model_spec(spec)
    model = RECORDED[type(law)](*astuple(law))
    assert model._log_laplace_error() is None
    ours, our_points = _evaluated(tail_quantiles, model, levels)
    expected, points = _evaluated(lockstep_bisection, model, levels)
    assert ours == expected
    assert len(our_points) == len(points)
    assert all(np.array_equal(a, b) for a, b in zip(our_points, points))
