"""Gain-coefficient laws and the link-cost distribution they induce.

Each link carries a cost ``log(1 + g*f)`` where ``g`` follows one of the
gain models below and ``f`` is a unit-rate exponential fade drawn
independently of ``g``.  All tail computations downstream run through the
reciprocal-gain transform ``E exp(-rho/g)``, so every model evaluates its
logarithm to about nine digits for rho anywhere from 0 up to 1e6 and
degrades gracefully beyond.  Transforms without a closed form are computed
by adaptive quadrature after factoring the integrand maximum out of the
exponent, which keeps the working range of the integrator away from
underflow however large rho becomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

__all__ = [
    "MODEL_SPEC_GRAMMAR",
    "ConstantGain",
    "DensityGain",
    "ExponentialGain",
    "GainModel",
    "ModelSpecError",
    "ParetoGain",
    "QuadratureError",
    "UniformGain",
    "generate_cost_matrix",
    "model_spec_string",
    "parse_model_spec",
    "sample_cost",
]

MODEL_SPEC_GRAMMAR = "constant:<c> | exp | pareto:<alpha> | uniform"

# Relative accuracy requested from the integrator, and the bound accepted on
# its own error estimate before the result is trusted.
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200
_LOG_ACCURACY = 1e-9


class ModelSpecError(ValueError):
    """A model spec string does not follow the documented grammar."""


class QuadratureError(RuntimeError):
    """Adaptive integration could not reach the accuracy target."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _integral(fn, lo: float, hi: float, points=None) -> tuple[float, float]:
    value, estimate = quad(
        fn, lo, hi, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT, points=points,
        full_output=1,
    )[:2]
    return float(value), float(estimate)


def _checked_log(total: float, estimate: float, label: str) -> float:
    if not total > 0.0 or estimate > total * _LOG_ACCURACY:
        achieved = estimate / total if total > 0 else math.inf
        raise QuadratureError(
            f"quadrature for {label} reached relative error {achieved:.3e}, "
            f"target {_LOG_ACCURACY:.0e}",
            achieved,
        )
    return math.log(total)


class GainModel:
    """Law of the nonnegative gain coefficient attached to each link.

    A law defines ``sample``, ``_log_laplace`` and ``spec``, the name it
    carries in reports.  A law with closed forms also defines
    ``_log_laplace_asymptotic``, ``_quantile_law`` and ``_growth_law``;
    without them it still simulates and predicts numerically, and its
    asymptotic prediction is NaN.
    """

    spec: str

    def sample(self, rng: np.random.Generator, size=None):
        """Draw gains: a float when ``size`` is None, else an ndarray."""
        raise NotImplementedError

    def log_laplace(self, rho: float) -> float:
        """log E exp(-rho/g), nonpositive and decreasing in rho.

        rho = 0 returns exactly 0.0 and rho = inf returns -inf; negative or
        NaN rho raises ValueError.
        """
        rho = float(rho)
        if math.isnan(rho) or rho < 0.0:
            raise ValueError("rho must be a nonnegative real")
        if rho == 0.0:
            return 0.0
        if math.isinf(rho):
            return -math.inf
        return self._log_laplace(rho)

    def log_laplace_asymptotic(self, rho: float) -> float:
        """Leading-order form of :meth:`log_laplace` for large rho."""
        rho = float(rho)
        if not rho > 0.0 or math.isinf(rho):
            raise ValueError("rho must be a positive finite real")
        return self._log_laplace_asymptotic(rho)

    def _log_laplace(self, rho: float) -> float:
        raise NotImplementedError

    def _log_laplace_asymptotic(self, rho: float) -> float:
        raise NotImplementedError

    def _quantile_law(self, size: float) -> float:
        """Leading behavior of the tail quantile at level exp(-size)."""
        raise ValueError(
            f"gain model {type(self).__name__} has no closed-form asymptotic quantile"
        )

    def _growth_law(self, n: int) -> float:
        """One-term growth law of the expected optimum at size n."""
        return math.nan


@dataclass(frozen=True)
class ConstantGain(GainModel):
    """Every link has the same deterministic gain ``value`` > 0."""

    value: float

    @property
    def spec(self) -> str:
        return f"constant:{self.value!r}"

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ValueError("constant gain must be a positive finite real")

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=float)

    def _log_laplace(self, rho: float) -> float:
        return -rho / self.value

    def _log_laplace_asymptotic(self, rho: float) -> float:
        # Already exact at every rho.
        return -rho / self.value

    def _quantile_law(self, size: float) -> float:
        return math.log1p(self.value * size)

    def _growth_law(self, n: int) -> float:
        return n * math.log(math.log(n))


@dataclass(frozen=True)
class ExponentialGain(GainModel):
    """Unit-rate exponential gains."""

    spec = "exp"

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(size=size)

    def _log_laplace(self, rho: float) -> float:
        if rho <= 1.0:
            # Integrand exp(-rho/y - y) peaks below 1; beyond y = 60 it is
            # under 1e-25 of the total, so a fixed cut is safe.
            fn = lambda y: math.exp(-rho / y - y)
            total, estimate = _integral(fn, 0.0, 60.0, points=[math.sqrt(rho), 1.0])
            return _checked_log(total, estimate, "exponential gain transform")
        # The peak sits at y = sqrt(rho) with bulk width rho**0.25.  Rescale
        # by the peak, fold the upper half onto (0, 1] via t -> 1/t, and lift
        # the peak value exp(-2 sqrt(rho)) out of the exponent.
        s = math.sqrt(rho)

        def folded(t: float) -> float:
            gap = t + 1.0 / t - 2.0
            return math.exp(-s * gap) * (1.0 + 1.0 / (t * t))

        points = [1.0 - min(0.5, 10.0 / math.sqrt(s))] if s > 400.0 else None
        total, estimate = _integral(folded, 0.0, 1.0, points=points)
        return -2.0 * s + math.log(s) + _checked_log(
            total, estimate, "exponential gain transform"
        )

    def _log_laplace_asymptotic(self, rho: float) -> float:
        return 0.5 * math.log(math.pi) + 0.25 * math.log(rho) - 2.0 * math.sqrt(rho)

    def _quantile_law(self, size: float) -> float:
        # The sharper two-log form log(log(p)**2 / 4), not its crude first term.
        return math.log(size * size / 4.0)

    def _growth_law(self, n: int) -> float:
        return 2.0 * n * math.log(math.log(n))


@dataclass(frozen=True)
class UniformGain(GainModel):
    """Gains uniform on (0, 1)."""

    spec = "uniform"

    def sample(self, rng: np.random.Generator, size=None):
        return rng.random(size=size)

    def _log_laplace(self, rho: float) -> float:
        if rho <= 1.0:
            fn = lambda y: math.exp(-rho / y)
            total, estimate = _integral(fn, 0.0, 1.0)
            return _checked_log(total, estimate, "uniform gain transform")
        # Mass concentrates in a width-1/rho layer under y = 1.  Substituting
        # u = 1/y - 1 and then v = exp(-rho*u) spreads that layer over (0, 1)
        # and leaves the boundary value exp(-rho) as an exact log prefactor.
        fn = lambda v: (1.0 - math.log(v) / rho) ** -2
        total, estimate = _integral(fn, 0.0, 1.0)
        return -rho - math.log(rho) + _checked_log(
            total, estimate, "uniform gain transform"
        )

    def _log_laplace_asymptotic(self, rho: float) -> float:
        return -rho - math.log(rho)

    def _quantile_law(self, size: float) -> float:
        return math.log(size)

    def _growth_law(self, n: int) -> float:
        return n * math.log(math.log(n))


@dataclass(frozen=True)
class ParetoGain(GainModel):
    """Polynomial-tail gains with density (alpha-1) * y**(-alpha) on [1, inf).

    For rho >= alpha + 700 the transform's integral no longer depends on
    rho, so each instance integrates it once, on first use, and reuses the
    log.  Building an instance runs no quadrature; the cached value takes
    no part in ``==``, ``hash`` or pickling.
    """

    alpha: float

    @property
    def spec(self) -> str:
        return f"pareto:{self.alpha!r}"

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not math.isfinite(self.alpha) or self.alpha <= 1.0:
            raise ValueError("pareto exponent alpha must exceed 1")

    def inverse_cdf(self, u):
        """Quantile transform sending uniform draws u in [0, 1) to gains."""
        return (1.0 - u) ** (-1.0 / (self.alpha - 1.0))

    def sample(self, rng: np.random.Generator, size=None):
        return self.inverse_cdf(rng.random(size=size))

    def _log_laplace(self, rho: float) -> float:
        a = self.alpha - 1.0
        if rho <= 1.0:
            # y -> 1/x maps the transform onto (0, 1) with a mild power
            # factor; no rescaling needed while rho stays small.
            fn = lambda x: x ** (a - 1.0) * math.exp(-rho * x)
            total, estimate = _integral(fn, 0.0, 1.0)
            return math.log(a) + _checked_log(total, estimate, "pareto gain transform")
        # t = rho/y turns the transform into an incomplete-gamma integrand
        # whose scale (rho**-a) factors out of the log exactly.
        if rho >= self.alpha + 700.0:
            tail = self._far_tail_log
        else:
            tail = self._log_incomplete_gamma(rho)
        return math.log(a) - a * math.log(rho) + tail

    def _log_incomplete_gamma(self, upper: float) -> float:
        a = self.alpha - 1.0
        fn = lambda t: t ** (a - 1.0) * math.exp(-t)
        total, estimate = _integral(fn, 0.0, upper)
        return _checked_log(total, estimate, "pareto gain transform")

    @cached_property
    def _far_tail_log(self) -> float:
        # The integral is cut at t = alpha + 700, past which the integrand is
        # negligible in double precision, so every larger rho shares it.
        return self._log_incomplete_gamma(self.alpha + 700.0)

    def __getstate__(self):
        # Pickle the law alone: a copy recomputes the cache when it needs it.
        state = dict(self.__dict__)
        state.pop("_far_tail_log", None)
        return state

    def _log_laplace_asymptotic(self, rho: float) -> float:
        a = self.alpha - 1.0
        return math.log(a) + math.lgamma(a) - a * math.log(rho)

    def _quantile_law(self, size: float) -> float:
        return size / (self.alpha - 1.0)

    def _growth_law(self, n: int) -> float:
        return n * math.log(n) / (self.alpha - 1.0)


@dataclass(frozen=True)
class DensityGain(GainModel):
    """Gain law given by an explicit density on (lower, upper).

    The density must integrate to one over its support within 1e-6.  The
    upper bound may be inf; sampling then truncates where the remaining
    tail mass is below 1e-9, while the transform still integrates the full
    support.  Draws use rejection under a flat envelope built from a scan
    of the density, so wildly peaked densities should be rescaled first.
    """

    density: Callable[[float], float]
    lower: float
    upper: float

    spec = "density"

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower >= 0.0 or not self.upper > self.lower:
            raise ValueError("need 0 <= lower < upper")
        cut = self._truncation_point()
        mass, estimate = _integral(self.density, self.lower, cut)
        if math.isinf(self.upper):
            mass += 1e-9  # bound on the discarded tail
        if abs(mass - 1.0) > 1e-6 or estimate > 1e-8:
            raise ValueError(
                f"density mass over the support is {mass:.8f}, not 1 within 1e-6"
            )
        grid = np.linspace(self.lower, cut, 4097)[1:-1]
        ceiling = max(float(self.density(float(y))) for y in grid)
        if not ceiling > 0.0:
            raise ValueError("density must be positive somewhere on its support")
        object.__setattr__(self, "_cut", cut)
        object.__setattr__(self, "_ceiling", ceiling * 1.2)

    def _truncation_point(self) -> float:
        if math.isfinite(self.upper):
            return self.upper
        cut = max(2.0 * max(self.lower, 1.0), self.lower + 1.0)
        for _ in range(120):
            tail, _ = _integral(self.density, cut, 2.0 * cut)
            far = quad(self.density, 2.0 * cut, np.inf, epsabs=1e-12, epsrel=1e-8,
                       full_output=1)[0]
            if tail + far < 1e-9:
                return cut
            cut *= 2.0
        raise ValueError("density tail mass does not decay; cannot truncate support")

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        want = 1 if scalar else int(np.prod(size))
        lo, span = self.lower, self._cut - self.lower
        out = np.empty(want)
        have = 0
        drawn = 0
        budget = 5000 * want + 10000
        while have < want:
            batch = min(max(4 * (want - have), 64), budget - drawn)
            if batch <= 0:
                raise RuntimeError(
                    f"rejection sampling exhausted {budget} proposals; "
                    "density too peaked for a flat envelope"
                )
            drawn += batch
            candidates = lo + span * rng.random(batch)
            heights = np.array([self.density(float(y)) for y in candidates])
            accepted = candidates[rng.random(batch) * self._ceiling < heights]
            take = min(len(accepted), want - have)
            out[have:have + take] = accepted[:take]
            have += take
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def _log_laplace_asymptotic(self, rho: float) -> float:
        raise ValueError(
            "user-supplied densities have no closed asymptotic form; "
            "use log_laplace instead"
        )

    def _log_laplace(self, rho: float) -> float:
        lo = self.lower
        log_density = self._log_density
        peak = self._exponent_peak(rho)
        shift = -rho / peak + log_density(peak)

        def integrand(y: float) -> float:
            lq = log_density(y)
            if lq == -math.inf:
                return 0.0
            return math.exp(-rho / y + lq - shift)

        total = 0.0
        estimate = 0.0
        if peak > lo:
            value, err = _integral(integrand, lo, peak)
            total += value
            estimate += err
        if math.isinf(self.upper):
            # u = peak/y folds (peak, inf) onto (0, 1).
            fn = lambda u: integrand(peak / u) * peak / (u * u)
            value, err = _integral(fn, 0.0, 1.0)
        else:
            value, err = _integral(integrand, peak, self.upper)
        total += value
        estimate += err
        return shift + _checked_log(total, estimate, "user density transform")

    def _log_density(self, y: float) -> float:
        if y <= self.lower or y >= self.upper:
            return -math.inf
        height = float(self.density(float(y)))
        if height <= 0.0:
            return -math.inf
        return math.log(height)

    def _exponent_peak(self, rho: float) -> float:
        lo = max(self.lower, 1e-12)
        hi = self._cut if math.isfinite(self.upper) else max(self._cut, 10.0 * rho)
        grid = np.geomspace(lo, hi, 512)
        scores = [-rho / y + self._log_density(float(y)) for y in grid]
        k = int(np.argmax(scores))
        if scores[k] == -math.inf:
            raise QuadratureError("density vanishes on its whole support", math.inf)
        left = grid[max(k - 1, 0)]
        right = grid[min(k + 1, len(grid) - 1)]
        if right > left:
            sol = minimize_scalar(
                lambda y: rho / y - self._log_density(float(y)),
                bounds=(left, right), method="bounded",
            )
            if sol.success and -sol.fun > scores[k]:
                return float(sol.x)
        return float(grid[k])


def sample_cost(model: GainModel, rng: np.random.Generator, size=None):
    """Draw link costs log(1 + g*f); gain draws precede fade draws."""
    gain = model.sample(rng, size=size)
    fade = rng.exponential(size=size)
    if size is None:
        return math.log1p(gain * fade)
    return np.log1p(gain * fade)


def generate_cost_matrix(
    model: GainModel,
    n: int,
    rng: np.random.Generator,
    gain_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Cost matrix with independent entries log(1 + g_ij * f_ij).

    Without ``gain_matrix`` both gains and fades are drawn fresh from
    ``rng`` (gains first).  With it, the given gains are held fixed and only
    the fades are drawn, which is the quenched variant.
    """
    n = int(n)
    if n < 1:
        raise ValueError("matrix order n must be at least 1")
    if gain_matrix is None:
        gains = model.sample(rng, size=(n, n))
    else:
        gains = np.asarray(gain_matrix, dtype=float)
        if gains.shape != (n, n):
            raise ValueError(
                f"gain matrix shape {gains.shape} does not match n = {n}"
            )
        if not np.all(np.isfinite(gains)) or not np.all(gains > 0.0):
            raise ValueError("gain matrix entries must be positive finite reals")
    fades = rng.exponential(size=(n, n))
    return np.log1p(gains * fades)


def parse_model_spec(text: str) -> GainModel:
    """Build a gain model from a spec string.

    Grammar (case-insensitive): ``constant:<c> | exp | pareto:<alpha> | uniform``.
    """
    spec = str(text).strip().lower()
    if spec == "exp":
        return ExponentialGain()
    if spec == "uniform":
        return UniformGain()
    head, sep, tail = spec.partition(":")
    if sep and head in ("constant", "pareto"):
        try:
            parameter = float(tail)
        except ValueError:
            raise ModelSpecError(
                f"bad numeric parameter {tail!r} in model spec {text!r}; "
                f"expected {MODEL_SPEC_GRAMMAR}"
            ) from None
        try:
            if head == "constant":
                return ConstantGain(parameter)
            return ParetoGain(parameter)
        except ValueError as exc:
            raise ModelSpecError(f"model spec {text!r}: {exc}") from None
    raise ModelSpecError(
        f"unrecognized model spec {text!r}; expected {MODEL_SPEC_GRAMMAR}"
    )


def model_spec_string(model: GainModel) -> str:
    """The model's ``spec``, its name in reports.

    For the built-in laws of :data:`MODEL_SPEC_GRAMMAR` it round-trips
    through :func:`parse_model_spec`; ``density`` and the specs of models
    defined elsewhere do not parse.
    """
    return model.spec
