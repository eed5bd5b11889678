"""Tail quantiles of the link-cost law and predictions for the expected optimum.

The cost of a single link satisfies P(cost >= r) = L(e^r - 1), writing L for
the reciprocal-gain transform of the gain model.  Everything here follows
from numerically inverting that identity: the tail quantile at level p, the
prediction n * quantile(1/n) for the expected optimum of an n x n instance,
and diagnostics for how slowly the quantile varies in p.  ``prediction_table``
is the one per-size table of predictions that ``predict`` prints and that
``simulate`` sets beside its simulated optima.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gains import GainModel, _elementwise

__all__ = [
    "BRACKET_WIDTH",
    "BracketError",
    "Prediction",
    "QuantileResult",
    "asymptotic_prediction",
    "asymptotic_quantile",
    "predicted_max",
    "prediction_table",
    "slow_variation_ratio",
    "tail_probability",
    "tail_quantile",
    "tail_quantiles",
]

BRACKET_WIDTH = 1e-10
# The largest r at which e^r - 1 is still a finite double; math.expm1
# overflows past it.
_R_MAX = math.log(sys.float_info.max)
_DOUBLE_LOG_GUARD = math.exp(-math.e)
_expm1 = _elementwise(math.expm1)


class BracketError(RuntimeError):
    """The quantile search could not bracket or pin down a root."""


@dataclass(frozen=True)
class QuantileResult:
    """Converged tail quantile with the evidence for its convergence.

    ``residual`` is the defect log L(e^r - 1) - log p at the returned r and
    stays within 1e-8; ``bracket`` is the final enclosing interval, no wider
    than ``BRACKET_WIDTH``.
    """

    p: float
    r: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


def tail_quantile(model: GainModel, p: float) -> QuantileResult:
    """Solve L(e^r - 1) = p for r; ``tail_quantiles`` for one level.

    Raises:
        ValueError: unless 0 < p < 1.
        BracketError: if the quantile lies beyond the largest r at which
            e^r - 1 is a double.
    """
    return tail_quantiles(model, (p,))[0]


def tail_quantiles(model: GainModel, levels: Iterable[float]) -> list[QuantileResult]:
    """Solve L(e^r - 1) = p for r by bisection, at every level p in lockstep.

    The map r -> log L(e^r - 1) is continuous and strictly decreasing from 0,
    so a bracket found by doubling r from [0, 1], up to the largest r at
    which e^r - 1 is a double (about 709.78), is bisected to width
    ``BRACKET_WIDTH``.  The levels, sorted by p, take these steps together,
    and each step evaluates the transform in one batch over the distinct
    points the levels ask for.  Every level starts from the same bracket, so
    levels share many points; each distinct r is evaluated once per call.
    As ``model.log_laplace`` depends on rho alone, the results, brackets,
    residuals and iteration counts included, equal separate
    ``tail_quantile`` solves.

    Raises:
        ValueError: unless 0 < p < 1 for every level, checked before any
            solve.
        BracketError: if a quantile lies beyond that largest r; it names
            the first such level in input order.
    """
    levels = [float(p) for p in levels]
    if not all(0.0 < p < 1.0 for p in levels):
        raise ValueError("quantile level p must lie strictly between 0 and 1")
    # A stable sort by p.  At a shared point a smaller p goes right whenever
    # a larger one does, so the brackets stay in p order: the points asked
    # for are nonincreasing, and equal ones sit next to each other.
    order = sorted(range(len(levels)), key=levels.__getitem__)
    target = np.array([math.log(levels[k]) for k in order])
    low, high = _doubled_brackets(model, target, levels, order)
    results: list[QuantileResult | None] = [None] * len(levels)
    live = order  # the levels still bisecting, in p order
    step = 0
    while live:
        mid = 0.5 * (low + high)
        value = _log_tails(model, mid)
        narrowing = high - low > BRACKET_WIDTH
        if np.count_nonzero(narrowing) < narrowing.size:
            # A level whose bracket is narrow enough asked for its root r.
            for k in np.flatnonzero(~narrowing).tolist():
                results[live[k]] = QuantileResult(
                    p=levels[live[k]], r=float(mid[k]), bracket=(float(low[k]), float(high[k])),
                    residual=float(value[k] - target[k]), iterations=step)
            live = [i for i, keep in zip(live, narrowing.tolist()) if keep]
            low, high, target, mid, value = (
                a[narrowing] for a in (low, high, target, mid, value))
        right = value > target
        low = np.where(right, mid, low)
        high = np.where(right, high, mid)
        step += 1
        if step > 2000 and live:
            raise BracketError("bisection failed to shrink the bracket")
    return results


def _log_tails(model: GainModel, r: np.ndarray) -> np.ndarray:
    """log L(e^r - 1) at each element of a nonincreasing array r.

    Equal elements sit next to each other, so one comparison of neighbours
    finds the distinct ones, and the transform sees each once.
    """
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    if np.count_nonzero(first) == first.size:
        return model._log_laplace_values(_expm1(r))
    return model._log_laplace_values(_expm1(r[first]))[np.cumsum(first) - 1]


def _doubled_brackets(model: GainModel, target: np.ndarray, levels: list[float],
                      order: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [low, high] of the levels in ``order``, by doubling high from 1.

    Every level doubles through the same points, so each step evaluates one.
    The levels still doubling are those whose target lies below the value
    there, a prefix of the sorted levels.
    """
    low = np.zeros(len(levels))
    high = np.ones(len(levels))
    point, doubling = 1.0, len(levels)
    while doubling:
        value = _log_tails(model, np.array([point]))[0]
        doubling = int(np.count_nonzero(target[:doubling] < value))
        if doubling and point == _R_MAX:
            p = levels[min(order[:doubling])]
            raise BracketError(
                f"no bracket for p = {p:g}: the quantile lies beyond r = {_R_MAX!r}, "
                "where e^r - 1 overflows a double"
            )
        low[:doubling] = point
        point = min(2.0 * point, _R_MAX)
        high[:doubling] = point
    return low, high


def tail_probability(model: GainModel, r: float) -> float:
    """P(link cost >= r), i.e. L(e^r - 1); the inverse of the quantile.

    Raises:
        ValueError: unless 0 <= r <= log(DBL_MAX), about 709.78; beyond it
            e^r - 1 overflows a double.
    """
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ValueError("threshold r must be nonnegative")
    if r > _R_MAX:
        raise ValueError(
            f"threshold r = {r!r} exceeds {_R_MAX!r}, where e^r - 1 overflows a double"
        )
    return math.exp(model.log_laplace(math.expm1(r)))


class Prediction(NamedTuple):
    """One size's row of :func:`prediction_table`; its fields are the columns."""

    n: int
    quantile_numeric: float
    quantile_asymptotic: float
    predicted_numeric: float
    predicted_asymptotic: float


def prediction_table(model: GainModel, sizes: Iterable[int]) -> list[Prediction]:
    """The numeric and closed-form quantile at level 1/n and prediction, per size n.

    The numeric prediction is n * quantile(1/n), with every quantile solved
    in one ``tail_quantiles`` call.  A closed form outside its domain, or
    one the model lacks, gives NaN: the sharp quantile law needs 1/n below
    exp(-e), the growth law n >= 3.

    Raises:
        ValueError: unless 2 <= n < 2**53 for every size, checked before
            any solve.  From 2**53 on a size is no longer an exact float,
            and 1/n or n * q(1/n) would describe some other size, or
            overflow.
        BracketError, QuadratureError: from the quantile solves.
    """
    sizes = [int(n) for n in sizes]
    if any(not 2 <= n < 2**53 for n in sizes):
        raise ValueError("every size must be at least 2 and below 2**53")
    quantiles = tail_quantiles(model, [1.0 / n for n in sizes])
    return [Prediction(n, quantile.r, _or_nan(asymptotic_quantile, model, 1.0 / n),
                       n * quantile.r, _or_nan(asymptotic_prediction, model, n))
            for n, quantile in zip(sizes, quantiles)]


def _or_nan(law, model: GainModel, x) -> float:
    try:
        return law(model, x)
    except ValueError:
        return math.nan


def predicted_max(model: GainModel, n: int) -> float:
    """Prediction n * quantile(1/n) for the expected optimum; one row of the table."""
    return prediction_table(model, (n,))[0].predicted_numeric


def asymptotic_prediction(model: GainModel, n: int) -> float:
    """One-term growth law for the expected optimum at size n.

    Defined for n >= 3 so the iterated logarithm is positive; it only
    becomes a serious approximation once log log n clears 1 (n >= 16).
    A model with no closed-form law (a density) gives NaN.
    """
    n = int(n)
    if n < 3:
        raise ValueError("asymptotic prediction needs n >= 3")
    return model._growth_law(n)


def asymptotic_quantile(model: GainModel, p: float) -> float:
    """Closed-form leading behavior of the tail quantile as p -> 0.

    Guarded to p < exp(-e) so the iterated logarithms involved are all
    above 1.  Raises ValueError outside that range, and for a model with no
    closed-form law (a density).
    """
    p = float(p)
    if not 0.0 < p < _DOUBLE_LOG_GUARD:
        raise ValueError("asymptotic quantile needs 0 < p < exp(-e)")
    return model._quantile_law(-math.log(p))


def slow_variation_ratio(model: GainModel, p: float, scale: float) -> float:
    """quantile(scale * p) / quantile(p); near 1 when the tail varies slowly."""
    p = float(p)
    scale = float(scale)
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level p must lie strictly between 0 and 1")
    if not scale > 0.0 or not 0.0 < scale * p < 1.0:
        raise ValueError("scale must be positive with scale * p inside (0, 1)")
    scaled, base = tail_quantiles(model, (scale * p, p))
    return scaled.r / base.r
