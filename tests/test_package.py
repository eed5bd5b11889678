"""The package namespace: each public name is listed once, in its module."""

from __future__ import annotations

import logassign
from logassign import experiment, gains, matching, quantile

MODULES = (experiment, gains, matching, quantile)


def test_package_all_is_the_union_of_the_module_lists() -> None:
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(logassign.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(logassign, name) is getattr(module, name)


def test_asymptotic_prediction_resolves_in_both_its_homes() -> None:
    assert logassign.asymptotic_prediction is quantile.asymptotic_prediction
    assert experiment.asymptotic_prediction is quantile.asymptotic_prediction
