"""Tail quantiles of the link-cost law and predictions for the expected optimum.

The cost of a single link satisfies P(cost >= r) = L(e^r - 1), writing L for
the reciprocal-gain transform of the gain model.  Everything here follows
from numerically inverting that identity: the tail quantile at level p, the
prediction n * quantile(1/n) for the expected optimum of an n x n instance,
and diagnostics for how slowly the quantile varies in p.  ``prediction_table``
is the one per-size table of predictions that ``predict`` prints and that
``simulate`` sets beside its simulated optima.

The quantiles come from bisection, whose every result is part of the report.
For a law that states an error bound on its transform, the solver skips the
bisection steps that the bound already decides: for the same bits, it calls
the transform a third to a half as often on a grid of sizes.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gains import GainModel, _elementwise, _whole_number

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
# Secant steps before bisection, at most; then the probes go this many
# stated errors past the root, more than the 2 a certificate needs.
_SECANT_STEPS = 8
_PROBE_MARGIN = 3.0


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
    and each step evaluates the transform in at most one batch, over the
    distinct mids whose side of the root is not yet known.

    A law that states an error bound E for its transform (see
    ``GainModel``) lets a level certify an evaluated point whose value lies
    at least 2 E max(1, |value|) above its target: every mid at or below it
    would move the bracket right.  A point that far below the target sends
    every mid at or above it left.  Before bisecting, a few secant steps and
    a pair of probes find such points close to each root, and every point
    evaluated later adds to them.  Bisection evaluates only the mids
    strictly between a level's two certified points, and each level's final
    mid for its residual.  The mids it skips would have moved the bracket
    the same way, so the results, brackets, residuals and iteration counts
    included, are those of plain bisection.  A law with no stated bound
    evaluates every mid.  As ``model.log_laplace`` depends on rho alone, the
    results also equal separate ``tail_quantile`` solves.

    Raises:
        ValueError: unless 0 < p < 1 for every level, checked before any
            solve.
        BracketError: if a quantile lies beyond that largest r; it names
            the first such level in input order.
    """
    levels = [float(p) for p in levels]
    if not all(0.0 < p < 1.0 for p in levels):
        raise ValueError("quantile level p must lie strictly between 0 and 1")
    if not levels:
        return []
    # A stable sort by p.  At a shared point a smaller p goes right whenever
    # a larger one does, so the brackets stay in p order: the mids are
    # nonincreasing, and equal ones sit next to each other.
    order = sorted(range(len(levels)), key=levels.__getitem__)
    target = np.array([math.log(levels[k]) for k in order])
    low, high, low_value, high_value = _doubled_brackets(model, target, levels, order)
    error = model._log_laplace_error()
    # Every mid at or below ``goes_right`` moves the bracket right, and every
    # mid at or above ``goes_left`` moves it left.
    goes_right, goes_left = _certified_points(
        model, error, target, low, high, low_value, high_value)
    results: list[QuantileResult | None] = [None] * len(levels)
    live = order  # the levels still bisecting, in p order
    # Each step halves every bracket, up to a rounding far below
    # BRACKET_WIDTH, so none is narrow enough before this step.
    narrow_from = int(math.log2((high - low).min() / BRACKET_WIDTH)) - 1
    finishing = np.zeros(len(live), dtype=bool)
    step = 0
    while live:
        mid = 0.5 * (low + high)
        right = mid <= goes_right
        left = mid >= goes_left
        # Neither certificate decides: both say no, or they disagree.
        asked = right == left
        if step >= narrow_from:
            finishing = high - low <= BRACKET_WIDTH
            asked |= finishing
        if np.count_nonzero(asked):
            at = np.flatnonzero(asked)
            r = mid[at]
            value = _log_tails(model, r)
            gap = value - target[at]
            moves_right = gap > 0.0
            right[at] = moves_right
            left[at] = ~moves_right  # NaN moves left, as in plain bisection
            if error is not None:
                up, down = _certifies(gap, value, error)
                goes_right[at] = np.where(up, r, goes_right[at])
                goes_left[at] = np.where(down, r, goes_left[at])
            if np.count_nonzero(finishing):
                # A level whose bracket is narrow enough takes mid as its root.
                done = finishing[at]
                for k, g in zip(at[done].tolist(), gap[done].tolist()):
                    results[live[k]] = QuantileResult(
                        p=levels[live[k]], r=float(mid[k]),
                        bracket=(float(low[k]), float(high[k])), residual=g, iterations=step)
                keep = ~finishing
                live = [i for i, kept in zip(live, keep.tolist()) if kept]
                low, high, target, mid, right, left, goes_right, goes_left = (
                    a[keep] for a in (low, high, target, mid, right, left, goes_right, goes_left))
        np.copyto(low, mid, where=right)
        np.copyto(high, mid, where=left)
        step += 1
        if step > 2000 and live:
            raise BracketError("bisection failed to shrink the bracket")
    return results


def _certifies(gap: np.ndarray, value: np.ndarray, error: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Which evaluated points certify going right, and which going left.

    ``value`` is the computed transform at a point and ``gap`` its excess
    over the target.  The computed transform is within error * max(1,
    |exact|) of the exact one, which is monotone, so a gap of twice that
    fixes the side of every mid beyond the point: right for a mid at or
    below a point with gap >= margin, left for one at or above a point with
    gap <= -margin.
    """
    margin = 2.0 * error * np.maximum(-value, 1.0)
    return gap >= margin, gap <= -margin


def _certified_points(model: GainModel, error: float | None, target: np.ndarray,
                      low: np.ndarray, high: np.ndarray, low_value: np.ndarray,
                      high_value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified points (goes_right, goes_left) of each level before bisecting.

    Without a stated error bound there are none: -inf and inf.  With one, a
    few lockstep secant steps close in on each root from its doubled
    bracket, and one pair of probes is evaluated just past the estimated
    root on either side.  The secant solves log(-log L) = log(-target) in
    the variable u = log(e^r - 1), where all four built-in laws are close to
    linear, and stays inside the bracket.  The bracket's ends, the secant's
    points and the probes are all certified where they can be.
    """
    if error is None:
        return np.full(target.size, -np.inf), np.full(target.size, np.inf)
    floor = np.maximum(low, sys.float_info.min)  # e^r - 1 must be positive

    def inside(u):
        # r of u, in the bracket; fmax and fmin also send NaN there.
        return np.fmin(np.fmax(np.log1p(np.exp(u)), floor), high)

    points, values = [low, high], [low_value, high_value]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        size = np.log(-target)
        # The last two points of each level, as u and the residual f in
        # log(-log L), newest last; at r = 0 both are -inf.
        u0, f0 = np.log(np.expm1(low)), np.log(-low_value) - size
        u1, f1 = np.log(np.expm1(high)), np.log(-high_value) - size
        slope = np.ones(target.size)  # where no secant has a positive slope yet
        # A level stops once its residual is within one stated error: then
        # the probes certify the root closely.  One that never gets there
        # stops with the others after _SECANT_STEPS.
        close = error / np.minimum(-target, 1.0)
        for _ in range(_SECANT_STEPS):
            going = np.abs(f1) > close
            if not going.any():
                break
            step = (f1 - f0) / (u1 - u0)
            np.copyto(slope, step, where=going & (step > 0.0) & (step < np.inf))
            x = inside(u1 - f1 / slope)
            value = _log_tails(model, x)
            points.append(x)
            values.append(value)
            np.copyto(u0, u1, where=going)
            np.copyto(f0, f1, where=going)
            np.copyto(u1, np.log(np.expm1(x)), where=going)
            np.copyto(f1, np.log(-value) - size, where=going)
        # The probes go a little past the certificate margin either side.
        u_root = u1 - f1 / slope
        shift = _PROBE_MARGIN * error * np.maximum(-target, 1.0) / -target
        probes = [inside(u_root + np.log1p(-shift) / slope),
                  inside(u_root + np.log1p(shift) / slope)]
    value = _log_tails(model, np.concatenate(probes))
    points += probes
    values += np.split(value, 2)
    r, value = np.array(points), np.array(values)
    up, down = _certifies(value - target, value, error)
    return np.where(up, r, -np.inf).max(axis=0), np.where(down, r, np.inf).min(axis=0)


def _log_tails(model: GainModel, r: np.ndarray) -> np.ndarray:
    """log L(e^r - 1) at each element of a nonempty array r, in one transform call.

    A run of equal neighbours is evaluated once.  The mids of a bisection
    step are nonincreasing, so there the transform sees each distinct one
    once.
    """
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    if np.count_nonzero(first) == first.size:
        return model._log_laplace_values(_expm1(r))
    return model._log_laplace_values(_expm1(r[first]))[np.cumsum(first) - 1]


def _doubled_brackets(model: GainModel, target: np.ndarray, levels: list[float],
                      order: list[int]) -> tuple[np.ndarray, ...]:
    """Brackets [low, high] of the levels in ``order``, by doubling high from 1.

    Every level doubles through the same points r = 0, 1, 2, 4, ..., up to
    the largest r at which e^r - 1 is a double, so each step evaluates one,
    until the smallest target no longer lies below the last value.  A
    level's high is then the first point whose value does not exceed its
    target, and its low the point before.  Returns low, high and the
    transform's value at each; at low = 0 that value is 0.
    """
    points, values = [0.0], [0.0]
    while target[0] < values[-1]:
        if points[-1] == _R_MAX:
            p = levels[min(order[:np.count_nonzero(target < values[-1])])]
            raise BracketError(
                f"no bracket for p = {p:g}: the quantile lies beyond r = {_R_MAX!r}, "
                "where e^r - 1 overflows a double"
            )
        points.append(min(max(2.0 * points[-1], 1.0), _R_MAX))
        values.append(_log_tails(model, np.array(points[-1:]))[0])
    r, value = np.array(points), np.array(values)
    high = np.argmin(target[:, None] < value, axis=1)
    return r[high - 1], r[high], value[high - 1], value[high]


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
        ValueError: unless every size is a whole number with
            2 <= n < 2**53, checked before any solve.  From 2**53 on a size
            is no longer an exact float, and 1/n or n * q(1/n) would
            describe some other size, or overflow.
        BracketError, QuadratureError: from the quantile solves.
    """
    sizes = [_whole_number("size", n) for n in sizes]
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
    n = _whole_number("size", n)
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
