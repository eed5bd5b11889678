"""Exact solvers for the maximum-total-cost assignment problem.

A cost matrix is any square array of finite reals; an assignment maps each
row to a distinct column.  The production solver is scipy's
``linear_sum_assignment``, an O(n^3) shortest-augmenting-path method (Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 2016).  It
minimises the row- and column-reduced matrix that starts Jonker and
Volgenant's method (Computing 38, 1987): each row's largest entry minus the
entry, less its column's smallest such difference.  Adding a constant to a
row or a column moves every assignment's total by that constant, so the
reduced minimisation has the maximisation's optimal permutations, and its
nonnegative costs with a zero in every row and column start the augmenting
paths close to the optimal duals.  The value reported is re-summed in row
order from the caller's matrix, never from the reduced one, so it does not
depend on the reduction or on how the solver accumulates costs.
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
    with np.errstate(over="ignore"):
        partial = np.add.accumulate(terms)
    # The terms are finite, so the sum leaves the doubles only by overflow,
    # and then stays infinite.
    if not math.isfinite(partial[-1]):
        row = int(np.argmin(np.isfinite(partial))) - 1
        raise ValueError("the assignment's total cost overflows a double: "
                         f"the row-order sum reaches inf at row {row}")
    return float(partial[-1])


def assignment_value(matrix, permutation) -> float:
    """Total cost of ``permutation`` on ``matrix``.

    The sum is accumulated in row order, so repeated calls on the same
    arguments return the identical float.

    Raises:
        ValueError: if ``matrix`` is not a valid cost matrix, if
            ``permutation`` is not a permutation of its columns, or if the
            total overflows a double.
    """
    return _row_order_value(as_cost_matrix(matrix), permutation)


def _reduced_costs(m: np.ndarray) -> np.ndarray:
    """The nonnegative minimisation costs whose optimal permutations are ``m``'s.

    One n x n buffer: each row's maximum minus the row, then each column's
    minimum subtracted in place.  ``m`` is only read.

    Raises:
        ValueError: if a row's spread, its largest minus its smallest entry,
            overflows a double.
    """
    try:
        with np.errstate(over="raise"):
            reduced = m.max(axis=1, keepdims=True) - m
    except FloatingPointError:
        low, high = m.min(axis=1), m.max(axis=1)
        with np.errstate(over="ignore"):
            row = int(np.argmax(high - low))
        raise ValueError(f"cost matrix row {row} spreads from {float(low[row])!r} to "
                         f"{float(high[row])!r}, a difference that overflows a double"
                         ) from None
    # Entries and column minima are nonnegative, so this cannot overflow.
    reduced -= reduced.min(axis=0)
    return reduced


def solve_max_assignment(matrix) -> Assignment:
    """Find a maximum-value assignment in O(n^3) time.

    The permutation is scipy's ``linear_sum_assignment`` (Crouse 2016) on the
    row- and column-reduced matrix, which shares the optimal permutations of
    ``matrix``.  The returned value is re-summed in row order from ``matrix``
    itself, as :func:`assignment_value` does, so it does not depend on the
    reduction or on how the solver accumulates costs.  Among tied optima the
    permutation returned is unspecified.  ``matrix`` is never written.

    Raises:
        ValueError: if ``matrix`` is not a valid cost matrix, if a row's
            spread overflows a double, or if the optimal total does.
    """
    from scipy.optimize import linear_sum_assignment

    m = as_cost_matrix(matrix)
    _, column_of_row = linear_sum_assignment(_reduced_costs(m))
    return Assignment(permutation=tuple(column_of_row.tolist()),
                      value=_row_order_sum(m, column_of_row))
