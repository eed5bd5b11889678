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
bisection steps that the bound already decides, jumping each level past them
in one move: for the same bits, it calls the transform a fifth to a quarter
as often on a grid of sizes.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gains import GainModel, _elementwise, _log, _whole_number

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
    "tail_probabilities",
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
# The doubled brackets up to this r, [0, 1] and [2^k, 2^(k+1)], are dyadic;
# only the last one, [512, _R_MAX], is not.  In units of _UNIT, half the
# widest power of two within BRACKET_WIDTH, their mids down to that width
# are whole numbers of at most 44 bits.
_DYADIC_TOP = 2.0 ** math.floor(math.log2(_R_MAX))
_UNIT = 2.0 ** math.floor(math.log2(BRACKET_WIDTH)) / 2.0
# The points at which doubling brackets the levels: r = 0, 1, 2, 4, ...,
# _DYADIC_TOP and _R_MAX.
_RUNGS = (0.0, *(2.0**k for k in range(int(math.log2(_DYADIC_TOP)) + 1)), _R_MAX)
# Secant steps before bisection, at most; then the probes go this many
# stated errors past the root, more than the 2 a certificate needs.
_SECANT_STEPS = 8
_PROBE_MARGIN = 3.0
_SIDES = np.array([[-1.0], [1.0]])  # a probe below the root, and one above


class BracketError(RuntimeError):
    """The quantile search could not bracket or pin down a root."""


@dataclass(frozen=True)
class QuantileResult:
    """Converged tail quantile with the evidence for its convergence.

    ``residual`` is the defect log L(e^r - 1) - log p at the returned r;
    ``bracket`` is the final enclosing interval, no wider than
    ``BRACKET_WIDTH``.  Nothing bounds the residual: it is below 1e-8 for
    the built-in laws at unit scale, but the width is absolute, so a root
    far below 1 can be off by much of its size.  ``ConstantGain(1e-12)`` at
    p = 0.01 gives r = 2.9e-11, the mid of [0, 5.8e-11], against an exact
    4.6e-12, with residual -24.5.
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
    """Solve L(e^r - 1) = p for r by bisection, at every level p in rounds.

    The map r -> log L(e^r - 1) is continuous and strictly decreasing from 0,
    so a bracket found by doubling r from [0, 1], up to the largest r at
    which e^r - 1 is a double (about 709.78), is bisected until it is no
    wider than ``BRACKET_WIDTH``; each level finishes at that step, its own
    depth, with the step's mid as its root.  The levels, sorted by p, move
    in rounds, and each round evaluates the transform in at most one batch,
    over the mids whose side of the root is not yet known.  The doubling
    evaluates one point a call, except that a law that states an error bound
    and has a closed-form quantile law evaluates, in its first call, every
    point up to twice that law's guess at the smallest level.

    A law that states an error bound E for its transform (see
    ``GainModel``) lets a level certify an evaluated point whose value lies
    at least 2 E max(1, |value|) above its target: every mid at or below it
    would move the bracket right.  A point that far below the target sends
    every mid at or above it left.  Before bisecting, a few secant steps and
    a pair of probes find such points close to each root.  A mid that
    bisection evaluates adds none that counts: whatever it certifies lies
    outside the bracket its own step leaves.  Bisection evaluates only the
    mids strictly between a level's two certified points, and each level's
    final mid for its residual.  The mids it skips would have moved the
    bracket the same way, so the results, brackets, residuals and iteration
    counts included, are those of plain bisection.  As ``model.log_laplace``
    depends on rho alone, the results also equal separate ``tail_quantile``
    solves.  A law that states no bound certifies no point, so it evaluates
    every mid, as plain lockstep bisection does.

    Each doubled bracket but the last, [0, 1] or [2^k, 2^(k+1)], is dyadic:
    its mids are exact, so a level in one jumps at the start of each round
    straight to its next mid to evaluate, past every step its certified
    points decide.  A round then evaluates every such level's mid, usually
    two or three rounds in all.  A level in the last bracket, [512, log
    DBL_MAX], whose mids round, takes one step per round instead, and
    evaluates its mid only when that step is undecided.

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
    root, bracket, residual, iterations = _bisect(model, levels)
    return [QuantileResult(p, r, (lo, hi), g, k) for p, r, lo, hi, g, k in zip(
        levels, root.tolist(), *bracket.tolist(), residual.tolist(), iterations.tolist())]


def _bisect(model: GainModel, levels: list[float]) -> tuple[np.ndarray, ...]:
    """``tail_quantiles`` at a nonempty list of valid levels, as arrays in input order.

    Returns each level's root, its final bracket as the two rows of one
    array, its residual and its iterations.
    """
    count = len(levels)
    # A stable sort by p.  At a shared point a smaller p goes right whenever
    # a larger one does, so levels at the same step keep their brackets in p
    # order: their mids are nonincreasing, and equal ones sit side by side.
    p = np.array(levels)
    order = np.argsort(p, kind="stable")
    target = _log(p[order])
    error = model._log_laplace_error()
    low, high, low_value, high_value = _doubled_brackets(model, error, target, levels, order)
    # Every mid at or below ``goes_right`` moves the bracket right, and every
    # mid at or above ``goes_left`` moves it left.
    goes_right, goes_left = _certified_points(
        model, error, target, low, high, low_value, high_value)
    # Only these points certify (see tail_quantiles).  A dyadic level jumps
    # by their positions in units of _UNIT: up to ``right_units`` every mid
    # goes right, and from ``left_units + 1`` on every mid goes left.
    right_units = np.floor(goes_right / _UNIT)
    left_units = np.ceil(goes_left / _UNIT) - 1.0
    bracket = np.array([low, high])
    low, high = bracket  # views: the rounds move the bracket in place
    # Each level's bracket and mid's value when it finishes.
    final, final_value = np.empty_like(bracket), np.empty(count)
    evaluated = np.empty(count)
    live = np.ones(count, dtype=bool)  # the levels still bisecting, in p order
    dyadic = high <= _DYADIC_TOP
    # Each level's iterations, the step at which it finishes: a dyadic
    # bracket halves exactly to 2 units wide, and the last bracket finishes
    # at step 41, which this also gives; its mids round, by far too little
    # to move that step.
    depth = np.frexp((high - low) / _UNIT)[1] - 2
    for _ in range(2000):
        if np.count_nonzero(dyadic):
            _jump(low, high, right_units, left_units, dyadic)
        mid = 0.5 * (low + high)
        right = mid <= goes_right
        # A level finishes at the step whose bracket is narrow enough, and
        # takes that step's mid as its root.  A finished level moves on
        # unevaluated, and its moves are not kept.
        finishing = (high - low <= BRACKET_WIDTH) & live
        # Neither certificate decides: both say no, or they disagree.
        asked = ((right == (mid >= goes_left)) | finishing) & live
        if np.count_nonzero(asked):
            at = np.flatnonzero(asked)
            value = _log_tails(model, mid[at])
            right[at] = value > target[at]  # NaN moves left, as in plain bisection
            if np.count_nonzero(finishing):
                evaluated[at] = value
                np.copyto(final, bracket, where=finishing)
                np.copyto(final_value, evaluated, where=finishing)
                live &= ~finishing
                if not np.count_nonzero(live):
                    break
        np.copyto(low, mid, where=right)
        np.copyto(high, mid, where=~right)
    else:
        raise BracketError("bisection failed to shrink the bracket")
    inverse = np.argsort(order)
    return ((0.5 * (final[0] + final[1]))[inverse], final[:, inverse],
            (final_value - target)[inverse], depth[inverse])


def _jump(low: np.ndarray, high: np.ndarray, right_units: np.ndarray,
          left_units: np.ndarray, dyadic: np.ndarray) -> None:
    """Move each dyadic level's bracket, in place, to that of its next mid to evaluate.

    That is its first mid that neither certified point decides, or else its
    finishing mid, whose bracket is two units wide.  A dyadic bracket halves
    exactly down to its finishing width, so its ends and mids are whole
    numbers of ``_UNIT``, and bisecting it walks the bits of a position in
    those units.  Every mid up to position ``a``, ``right_units``, goes
    right and every one from ``c + 1``, ``left_units + 1``, on goes left, so
    the steps that the certified points decide are the leading bits that a
    and c share, once both are clamped into the bracket; this holds
    whichever of them is larger.  The next mid to evaluate heads the
    smallest bracket holding both.  With no certified points, a is the
    bracket's first position and c its last, so the bracket stays.
    """
    lo = low / _UNIT
    top = high / _UNIT - 1.0
    a = np.minimum(np.maximum(right_units, lo), top).astype(np.int64)
    c = np.minimum(np.maximum(left_units, lo), top).astype(np.int64)
    # The bracket whose mid is next is 2^bits units wide.  Levels that are
    # not dyadic compute values they do not keep.
    bits = np.maximum(np.frexp((a ^ c).astype(float))[1], 1)
    start = (a >> bits << bits) * _UNIT
    np.copyto(low, start, where=dyadic)
    np.copyto(high, start + np.ldexp(_UNIT, bits), where=dyadic)


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

    The computed transform is within error * max(1, |exact|) of the exact
    one, which is monotone, so a point whose value lies twice that above
    the target sends every mid at or below it right, and one twice that
    below sends every mid at or above it left.
    """
    if error is None:
        return np.full(target.size, -np.inf), np.full(target.size, np.inf)
    floor = np.maximum(low, sys.float_info.min)  # e^r - 1 must be positive

    def inside(u):
        # r of u, in the bracket; fmax and fmin also send NaN there.
        return np.fmin(np.fmax(np.log1p(np.exp(u)), floor), high)

    # Every point evaluated here, one row a call, and its value.
    points = np.empty((_SECANT_STEPS + 4, target.size))
    values = np.empty_like(points)
    points[0], points[1], values[0], values[1] = low, high, low_value, high_value
    rows = 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The last two points of each level, as u and the residual f in
        # log(-log L), newest last; at r = 0 both are -inf.
        u0, f0 = np.log(np.expm1(low)), np.log(low_value / target)
        u1, f1 = np.log(np.expm1(high)), np.log(high_value / target)
        slope = np.ones(target.size)  # where no secant has a positive slope yet
        # A level is done once its residual is within one stated error: then
        # the probes certify the root closely.  From there on its slope stays,
        # so its steps only close in further.  After _SECANT_STEPS all stop.
        close = error / np.minimum(-target, 1.0)
        for _ in range(_SECANT_STEPS):
            going = np.abs(f1) > close
            if not np.count_nonzero(going):
                break
            step = (f1 - f0) / (u1 - u0)
            np.copyto(slope, step, where=going & (step > 0.0) & (step < np.inf))
            points[rows] = x = inside(u1 - f1 / slope)
            values[rows] = value = _log_tails(model, x)
            rows += 1
            u0, f0 = u1, f1
            u1, f1 = np.log(np.expm1(x)), np.log(value / target)
        # The probes go a little past the certificate margin either side, in
        # one call: _PROBE_MARGIN stated errors in L is that many ``close``
        # in f.
        points[rows:rows + 2] = probes = inside(
            u1 - f1 / slope + np.log1p(_SIDES * (_PROBE_MARGIN * close)) / slope)
    values[rows:rows + 2] = _log_tails(model, probes.ravel()).reshape(probes.shape)
    r, value = points[:rows + 2], values[:rows + 2]
    gap = value - target
    margin = 2.0 * error * np.maximum(-value, 1.0)
    return (np.where(gap >= margin, r, -np.inf).max(axis=0),
            np.where(gap <= -margin, r, np.inf).min(axis=0))


def _log_tails(model: GainModel, r: np.ndarray) -> np.ndarray:
    """log L(e^r - 1) at each element of a nonempty array r, in one transform call.

    A run of equal neighbours is evaluated once.  Levels in p order at one
    step have nonincreasing mids, so in lockstep the transform sees each
    distinct mid once; a level that has jumped deeper can split a run, and
    then the mid it splits is evaluated twice in the call.
    """
    repeats = r[1:] == r[:-1]
    if not np.count_nonzero(repeats):
        return model._log_laplace_values(_expm1(r))
    first = np.concatenate(([True], ~repeats))
    return model._log_laplace_values(_expm1(r[first]))[np.cumsum(first) - 1]


def _doubled_brackets(model: GainModel, error: float | None, target: np.ndarray,
                      levels: list[float], order: np.ndarray) -> tuple[np.ndarray, ...]:
    """Brackets [low, high] of the levels in ``order``, by doubling high from 1.

    Every level doubles through the same rungs r = 0, 1, 2, 4, ..., up to
    the largest r at which e^r - 1 is a double, until the smallest target no
    longer lies below the last value.  A level's high is then the first rung
    whose value does not exceed its target, and its low the rung before.
    Returns low, high and the transform's value at each; at low = 0 that
    value is 0.

    A law that states an error bound and has a closed-form quantile law
    evaluates in its first call every rung up to the first at or past twice
    that law's guess at the smallest level, and each later rung in a call of
    its own.  Any other law evaluates one rung a call.  The rungs past the
    one that stops the doubling are evaluated and left unused.
    """
    last = 1  # the last rung of the first call
    if error is not None:
        try:
            guess = 2.0 * model._quantile_law(-float(target[0]))
        except ValueError:
            guess = 0.0
        while last < len(_RUNGS) - 1 and _RUNGS[last] < guess:
            last += 1
    values = [0.0]
    while target[0] < values[-1]:
        done = len(values)
        if done == len(_RUNGS):
            p = levels[min(order[:np.count_nonzero(target < values[-1])])]
            raise BracketError(
                f"no bracket for p = {p:g}: the quantile lies beyond r = {_R_MAX!r}, "
                "where e^r - 1 overflows a double"
            )
        for value in _log_tails(model, np.array(_RUNGS[done:max(last, done) + 1])).tolist():
            values.append(value)
            if not target[0] < value:
                break
    r, value = np.array(_RUNGS[:len(values)]), np.array(values)
    high = np.argmin(target[:, None] < value, axis=1)
    return r[high - 1], r[high], value[high - 1], value[high]


def tail_probability(model: GainModel, r: float) -> float:
    """P(link cost >= r), i.e. L(e^r - 1); the inverse of the quantile.

    Raises:
        ValueError: unless 0 <= r <= log(DBL_MAX), about 709.78; beyond it
            e^r - 1 overflows a double.
    """
    return tail_probabilities(model, (r,))[0]


def tail_probabilities(model: GainModel, thresholds: Iterable[float]) -> list[float]:
    """``tail_probability`` at each threshold, in one transform call.

    Every threshold is checked, in order, before any is evaluated, and a
    run of equal thresholds is evaluated once.  r = 0, where e^r - 1 is 0,
    has probability 1 without a call.

    Raises:
        ValueError: unless 0 <= r <= log(DBL_MAX) for every threshold r.
    """
    thresholds = [float(r) for r in thresholds]
    for r in thresholds:
        if math.isnan(r) or r < 0.0:
            raise ValueError("threshold r must be nonnegative")
        if r > _R_MAX:
            raise ValueError(
                f"threshold r = {r!r} exceeds {_R_MAX!r}, where e^r - 1 overflows a double"
            )
    positive = [r for r in thresholds if r > 0.0]
    values = iter(_log_tails(model, np.array(positive)).tolist() if positive else ())
    return [math.exp(next(values)) if r > 0.0 else 1.0 for r in thresholds]


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
    together, as one ``tail_quantiles`` call solves them.  A closed form outside its domain, or
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
    levels = [1.0 / n for n in sizes]
    roots = _bisect(model, levels)[0].tolist() if levels else []
    rows = []
    for n, p, r in zip(sizes, levels, roots):
        try:
            sharp = _sharp_quantile(model, p)
        except ValueError:  # the model has no closed forms
            sharp = None
        growth = _growth(model, n)
        rows.append(Prediction(n, r, math.nan if sharp is None else sharp,
                               n * r, math.nan if growth is None else growth))
    return rows


def predicted_max(model: GainModel, n: int) -> float:
    """Prediction n * quantile(1/n) for the expected optimum; one row of the table."""
    return prediction_table(model, (n,))[0].predicted_numeric


def asymptotic_prediction(model: GainModel, n: int) -> float:
    """One-term growth law for the expected optimum at size n.

    Defined for n >= 3 so the iterated logarithm is positive; it only
    becomes a serious approximation once log log n clears 1 (n >= 16).
    A model with no closed-form law (a density) gives NaN.
    """
    growth = _growth(model, _whole_number("size", n))
    if growth is None:
        raise ValueError("asymptotic prediction needs n >= 3")
    return growth


def asymptotic_quantile(model: GainModel, p: float) -> float:
    """Closed-form leading behavior of the tail quantile as p -> 0.

    Guarded to p < exp(-e) so the iterated logarithms involved are all
    above 1.  Raises ValueError outside that range, and for a model with no
    closed-form law (a density).
    """
    sharp = _sharp_quantile(model, float(p))
    if sharp is None:
        raise ValueError("asymptotic quantile needs 0 < p < exp(-e)")
    return sharp


# The domains of the two closed forms, for the public functions and the
# prediction table alike: None outside them.
def _growth(model: GainModel, n: int) -> float | None:
    return model._growth_law(n) if n >= 3 else None


def _sharp_quantile(model: GainModel, p: float) -> float | None:
    return model._quantile_law(-math.log(p)) if 0.0 < p < _DOUBLE_LOG_GUARD else None


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
