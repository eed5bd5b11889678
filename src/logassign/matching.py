"""Exact solvers for the maximum-total-cost assignment problem.

A cost matrix is any square array of finite reals; an assignment maps each
row to a distinct column.  The production solver is scipy's
``linear_sum_assignment``, an O(n^3) shortest-augmenting-path method (Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 2016); the
value it reports is re-summed in row order from the permutation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Assignment",
    "as_cost_matrix",
    "assignment_value",
    "solve_max_assignment",
]


@dataclass(frozen=True)
class Assignment:
    """Column assigned to each row, with the total cost of that choice."""

    permutation: tuple[int, ...]
    value: float


def as_cost_matrix(matrix) -> np.ndarray:
    """Coerce ``matrix`` to a validated square float array.

    Raises:
        ValueError: if the input is not square, is empty, or carries
            non-finite entries.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("cost matrix must have at least one row")
    # NaN propagates through min and max, so two reductions cover every entry
    # without an n x n temporary.
    if not (math.isfinite(m.min()) and math.isfinite(m.max())):
        raise ValueError("cost matrix entries must be finite")
    return m


def _row_order_value(m: np.ndarray, permutation) -> float:
    n = m.shape[0]
    pi = []
    for j in permutation:
        try:
            pi.append(operator.index(j))
        except TypeError:
            raise ValueError(f"permutation entry {j!r} is not an integer") from None
    if sorted(pi) != list(range(n)):
        raise ValueError(f"permutation must list each column 0..{n - 1} exactly once")
    return _row_order_sum(m, pi)


def _row_order_sum(m: np.ndarray, columns) -> float:
    # One addition per row, in row order, from 0.0: np.add.accumulate adds
    # sequentially, where np.sum adds pairwise and fsum exactly.
    terms = np.empty(m.shape[0] + 1)
    terms[0] = 0.0
    terms[1:] = m[np.arange(m.shape[0]), columns]
    return float(np.add.accumulate(terms)[-1])


def assignment_value(matrix, permutation) -> float:
    """Total cost of ``permutation`` on ``matrix``.

    The sum is accumulated in row order, so repeated calls on the same
    arguments return the identical float.
    """
    return _row_order_value(as_cost_matrix(matrix), permutation)


def solve_max_assignment(matrix) -> Assignment:
    """Find a maximum-value assignment in O(n^3) time.

    The permutation comes from scipy's ``linear_sum_assignment`` with
    ``maximize=True`` (Crouse 2016).  The returned value is re-summed in row
    order from that permutation, as :func:`assignment_value` does, so it
    does not depend on how the solver accumulates costs.  Among tied optima
    the permutation returned is unspecified.
    """
    from scipy.optimize import linear_sum_assignment

    m = as_cost_matrix(matrix)
    _, column_of_row = linear_sum_assignment(m, maximize=True)
    return Assignment(permutation=tuple(column_of_row.tolist()),
                      value=_row_order_sum(m, column_of_row))
