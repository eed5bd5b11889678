"""Gain-coefficient laws and the link-cost distribution they induce.

Each link carries a cost ``log(1 + g*f)`` where ``g`` follows one of the
gain models below and ``f`` is a unit-rate exponential fade drawn
independently of ``g``.  All tail computations downstream run through the
reciprocal-gain transform ``E exp(-rho/g)``.  The built-in laws evaluate
its logarithm in closed form through scipy's special functions, within
1e-13 (relative beyond 1) of a 40-digit reference for every rho that is a
double.  Short series take over where those functions underflow, lose their
way or round a tiny value away.  The one exception is Pareto's far tail,
one quadrature per alpha in a process.  Each built-in law writes its
branches once, as array code, so that the quantile solver evaluates many
rho in one call and a single rho is a batch of one.  A user-supplied
density is integrated by adaptive quadrature after factoring the integrand
maximum out of the exponent, which keeps the working range of the
integrator away from underflow however large rho becomes, as long as the
density itself does not underflow (see ``DensityGain``).

Of scipy, importing this module loads ``scipy.special`` alone.  The
functions that integrate import ``scipy.integrate``, and ``DensityGain``'s
peak search imports ``scipy.optimize``, when first called; building a
``DensityGain`` imports ``scipy.stats`` for its sampler.  So ``predict``
and ``tail-check`` of the built-in laws load neither, except that
``pareto:<alpha>`` loads ``scipy.integrate``, and with it
``scipy.optimize``, when it first reaches its far tail, rho >= alpha + 700,
until the incomplete-gamma branch serves that tail too (ROADMAP item 2).
``simulate`` and ``solve`` load ``scipy.optimize`` for the solver in
``matching``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy import special

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
    "parse_model_spec",
    "sample_cost",
]

MODEL_SPEC_GRAMMAR = "constant:<c> | exp | pareto:<alpha> | uniform"

# Relative accuracy requested from the integrator, and the bound accepted on
# its own error estimate before the result is trusted.
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200
_LOG_ACCURACY = 1e-9
# From here on kve and hyperu are replaced by their asymptotic series, long
# before they fail (NaN from about s = 1e10, 0 from about rho = 1e165).
_SERIES_FROM = 1e4
_DENSITY_LABEL = "user density transform"
# The stated error bound E of the built-in laws' transforms: a computed log
# transform lies within E * max(1, |exact|) of the exact one at every rho.
# Their tests hold them to 1e-13 of a 40-digit reference; the factor 10
# covers points between those tested and the rounding of libm's expm1 in
# rho = e^r - 1.
_CLOSED_FORM_ERROR = 1e-12
# A unit exponential fade drawn as -log u from a double u >= 2**-1074 stays
# below 745 (numpy's ziggurat fades stay below 45), so below this gain g*f
# never overflows.
_OVERFLOW_GAIN = sys.float_info.max / 745.0


def _elementwise(fn):
    """``fn`` from ``math``, applied to each element of a float array.

    numpy's own log, log1p and expm1 differ from libm in the last bit on
    some inputs: up to a tenth of them for expm1, fewer than one in a
    thousand for log.  Going through libm one element at a time keeps the
    bits of the scalar formulas.
    """
    return lambda x: np.fromiter(map(fn, x.tolist()), float, x.size)


_log = _elementwise(math.log)
_log1p = _elementwise(math.log1p)


def _piecewise(rho: np.ndarray, conditions, formulas) -> np.ndarray:
    """``np.piecewise`` for disjoint conditions, at a fraction of its set-up cost.

    The last formula takes the elements that meet no condition.  A formula
    runs only on the elements it takes, and only if it takes any.
    """
    counts = [np.count_nonzero(condition) for condition in conditions]
    if rho.size in counts:
        return formulas[counts.index(rho.size)](rho)
    if not any(counts):
        return formulas[-1](rho)
    out = np.empty_like(rho)
    for condition, count, formula in zip(conditions, counts, formulas):
        if count:
            out[condition] = formula(rho[condition])
    if sum(counts) < rho.size:
        rest = ~functools.reduce(np.logical_or, conditions)
        out[rest] = formulas[-1](rho[rest])
    return out


class ModelSpecError(ValueError):
    """A model spec string does not follow the documented grammar."""


class QuadratureError(RuntimeError):
    """Adaptive integration could not reach the accuracy target."""


def _integral(fn, lo: float, hi: float, label: str = "integrand") -> tuple[float, float]:
    from scipy.integrate import quad

    try:
        value, estimate = quad(
            fn, lo, hi, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT, full_output=1,
        )[:2]
    except OverflowError:
        raise QuadratureError(f"quadrature for {label} failed: its integrand "
                              "overflows a double") from None
    return float(value), float(estimate)


def _checked_log(total: float, estimate: float, label: str) -> float:
    if not total > 0.0 or estimate > total * _LOG_ACCURACY:
        achieved = estimate / total if total > 0 else math.inf
        raise QuadratureError(f"quadrature for {label} reached relative error "
                              f"{achieved:.3e}, target {_LOG_ACCURACY:.0e}")
    return math.log(total)


class GainModel:
    """Law of the nonnegative gain coefficient attached to each link.

    A law defines ``sample``, ``spec``, the name it carries in reports, and
    its transform in one of two forms: ``_log_laplace(rho)`` for one float,
    or ``_log_laplace_batch(rho)`` for a float array of positive finite rho.
    The base class bridges them.  By default the scalar form is the batch
    form at one point, and ``_log_laplace_values``, through which the
    quantile solver evaluates many points at once, calls ``log_laplace`` at
    each point unless the law gives the batch form and overrides neither
    ``log_laplace`` nor ``_log_laplace``.  A law that gives neither form
    raises NotImplementedError.

    The built-in laws give the batch form, over the branches and in the
    operation order of scalar code.  Their log and log1p go through libm
    one element at a time, since numpy's own differ from it in the last
    bit, while numpy's arithmetic and sqrt and scipy's special functions
    give the same bits on arrays as on floats.  So a point's value does not
    depend on the batch it is evaluated in.

    A law may state an error bound E: every value ``_log_laplace_values``
    gives is within E * max(1, |exact|) of the exact log transform.  The
    quantile solver then skips the evaluations that the bound decides.
    The four built-in laws state E = 1e-12, ten times what their tests
    check against a 40-digit reference; a law of any other class, a
    subclass of a built-in one included, states none.

    A law with closed forms also defines
    ``_log_laplace_asymptotic``, ``_quantile_law`` and ``_growth_law``;
    without them it still simulates and predicts numerically.  A closed
    form that a law lacks, or that is asked for outside its domain, raises
    ValueError, which the prediction table prints as NaN; a missing growth
    law is NaN already.
    """

    spec: str

    def sample(self, rng: np.random.Generator, size=None):
        """Draw gains: a float when ``size`` is None, else an ndarray."""
        raise NotImplementedError

    def log_laplace(self, rho: float) -> float:
        """log E exp(-rho/g), nonpositive and decreasing in rho.

        rho = 0 returns exactly 0.0 and rho = inf returns -inf; negative or
        NaN rho raises ValueError.  A law's value above 0, which round-off
        can give at tiny rho, is clamped to 0.0.
        """
        rho = float(rho)
        if math.isnan(rho) or rho < 0.0:
            raise ValueError("rho must be a nonnegative real")
        if rho == 0.0:
            return 0.0
        if math.isinf(rho):
            return -math.inf
        return min(self._log_laplace(rho), 0.0)

    def log_laplace_asymptotic(self, rho: float) -> float:
        """Leading-order form of :meth:`log_laplace` for large rho."""
        rho = float(rho)
        if not rho > 0.0 or math.isinf(rho):
            raise ValueError("rho must be a positive finite real")
        return self._log_laplace_asymptotic(rho)

    def _log_laplace(self, rho: float) -> float:
        # Overflow gives inf and inf - inf gives NaN silently, as for floats.
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self._log_laplace_batch(np.array([rho]))[0])

    def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"gain model {type(self).__name__} defines no transform")

    def _log_laplace_values(self, rho: np.ndarray) -> np.ndarray:
        """:meth:`log_laplace` at each element of a float array of positive finite rho."""
        cls = type(self)
        if cls.log_laplace is not GainModel.log_laplace or (
                cls._log_laplace is not GainModel._log_laplace):
            return _elementwise(self.log_laplace)(rho)
        with np.errstate(over="ignore", invalid="ignore"):
            values = self._log_laplace_batch(rho)
        # min(value, 0.0) of log_laplace, NaN and -0.0 included.
        return np.where(0.0 < values, 0.0, values)

    def _log_laplace_error(self) -> float | None:
        """The stated error bound E of the transform, or None if the law states none."""
        return _CLOSED_FORM_ERROR if type(self) in _CLOSED_FORM_LAWS else None

    def _log_laplace_asymptotic(self, rho: float) -> float:
        raise ValueError(
            f"gain model {type(self).__name__} has no closed-form asymptotic transform"
        )

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

    def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
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
    """Unit-rate exponential gains.

    The transform is ``s K_1(s)`` with ``s = 2 sqrt(rho)`` (DLMF §10.32).
    """

    spec = "exp"

    def sample(self, rng: np.random.Generator, size=None):
        # The bits and stream position of rng.exponential(size=size), whose
        # scale 1.0 only adds an exact multiply.
        return rng.standard_exponential(size=size)

    def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
        return _piecewise(rho, [rho < 1e-7, 2.0 * np.sqrt(rho) >= _SERIES_FROM],
                          [self._small, self._hankel, self._bessel])

    @staticmethod
    def _small(rho: np.ndarray) -> np.ndarray:
        # The first two terms of s K_1(s) - 1 (DLMF §10.31), exact to 1e-15
        # here.  kve's factor exp(s) would bury them in rounding.
        log_rho = _log(rho) + 2.0 * np.euler_gamma
        return _log1p(rho * (log_rho - 1.0 + 0.5 * rho * (log_rho - 2.5)))

    @staticmethod
    def _bessel(rho: np.ndarray) -> np.ndarray:
        s = 2.0 * np.sqrt(rho)
        return _log(s) + _log(special.kve(1, s)) - s

    @staticmethod
    def _hankel(rho: np.ndarray) -> np.ndarray:
        # Hankel's expansion of K_1 (DLMF §10.40); its next term is below
        # 1e-13 here.
        s = 2.0 * np.sqrt(rho)
        return (_log(s) + 0.5 * _log(math.pi / (2.0 * s))
                + _log1p(3.0 / (8.0 * s) - 15.0 / (128.0 * s * s)) - s)

    def _log_laplace_asymptotic(self, rho: float) -> float:
        return 0.5 * math.log(math.pi) + 0.25 * math.log(rho) - 2.0 * math.sqrt(rho)

    def _quantile_law(self, size: float) -> float:
        # The sharper two-log form log(log(p)**2 / 4), not its crude first term.
        return math.log(size * size / 4.0)

    def _growth_law(self, n: int) -> float:
        return 2.0 * n * math.log(math.log(n))


@dataclass(frozen=True)
class UniformGain(GainModel):
    """Gains uniform on (0, 1).

    The transform is the exponential integral ``E_2(rho)`` (DLMF §8.19),
    which equals ``rho exp(-rho) U(2, 2, rho)`` (DLMF §13.6).
    """

    spec = "uniform"

    def sample(self, rng: np.random.Generator, size=None):
        return rng.random(size=size)

    def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
        series = rho >= _SERIES_FROM
        value = special.expn(2, rho)
        # E_2 leaves the normal range near rho = 700.  Only from there on is
        # hyperu accurate enough: near rho = 10 it is off by up to 8e-11.
        normal = (value >= sys.float_info.min) & ~series
        # The E_2 branch takes the values just computed.
        return _piecewise(rho, [series, normal],
                          [self._series, lambda _: _log(value[normal]), self._hyperu])

    @staticmethod
    def _hyperu(rho: np.ndarray) -> np.ndarray:
        return _log(rho) - rho + _log(special.hyperu(2, 2, rho))

    @staticmethod
    def _series(rho: np.ndarray) -> np.ndarray:
        # The asymptotic series of E_2 (DLMF §8.20) in powers of 1/rho; its
        # next term is below 1e-15 here.
        w = 1.0 / rho
        return -rho - _log(rho) + _log1p(w * (-2.0 + w * (6.0 - 24.0 * w)))

    def _log_laplace_asymptotic(self, rho: float) -> float:
        return -rho - math.log(rho)

    def _quantile_law(self, size: float) -> float:
        return math.log(size)

    def _growth_law(self, n: int) -> float:
        return n * math.log(math.log(n))


@dataclass(frozen=True)
class ParetoGain(GainModel):
    """Polynomial-tail gains with density (alpha-1) * y**(-alpha) on [1, inf).

    With ``a = alpha - 1`` the transform is ``a rho**-a gamma(a, rho)``, the
    lower incomplete gamma function (DLMF §8.2).  Below rho = alpha it is
    evaluated as ``exp(-rho) M(1, alpha, rho)`` (Kummer's function, DLMF
    §8.5), and from there through the regularized ``P(a, rho)``.  For rho
    >= alpha + 700 the integral no longer depends on rho, and
    ``_pareto_far_tail_log`` integrates it once per alpha in a process; the
    integrand overflows for alpha above about 106, which raises
    ``QuadratureError``.  Building an instance runs no quadrature.
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
        """Quantile transform sending uniform draws u in [0, 1) to gains.

        Computes ``(1.0 - u) ** (-1 / (alpha - 1))`` in one fresh array.
        The in-place power takes numpy's scalar-exponent fast paths, as the
        plain expression does, so the bits are the same.  ``u`` is only read.
        A gain that overflows a double comes out as inf, without a warning,
        and the checks of the gain matrix name it.
        """
        v = np.subtract(1.0, u)
        with np.errstate(over="ignore"):
            v **= -1.0 / (self.alpha - 1.0)
        return v

    def sample(self, rng: np.random.Generator, size=None):
        return self.inverse_cdf(rng.random(size=size))

    def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
        return _piecewise(rho, [rho < self.alpha, rho >= self.alpha + 700.0],
                          [self._kummer, self._far_tail, self._incomplete_gamma])

    def _kummer(self, rho: np.ndarray) -> np.ndarray:
        # M(1, b, rho) = 1 + (rho/b) M(1, b + 1, rho) keeps the digits of tiny
        # rho.  Not gammainc, which underflows there for large alpha.
        series = special.hyp1f1(1.0, self.alpha + 1.0, rho)
        return -rho + _log1p(rho / self.alpha * series)

    # In both branches below, the scale rho**-a of the incomplete gamma
    # integral factors out of the log exactly.
    def _incomplete_gamma(self, rho: np.ndarray) -> np.ndarray:
        a = self.alpha - 1.0
        return (math.log(a) - a * _log(rho) + math.lgamma(a)
                + _log(special.gammainc(a, rho)))

    def _far_tail(self, rho: np.ndarray) -> np.ndarray:
        a = self.alpha - 1.0
        # Keyed on alpha: a subclass shares the entry and need not be hashable.
        return math.log(a) - a * _log(rho) + _pareto_far_tail_log(self.alpha)

    def _log_laplace_asymptotic(self, rho: float) -> float:
        a = self.alpha - 1.0
        return math.log(a) + math.lgamma(a) - a * math.log(rho)

    def _quantile_law(self, size: float) -> float:
        return size / (self.alpha - 1.0)

    def _growth_law(self, n: int) -> float:
        return n * math.log(n) / (self.alpha - 1.0)


@functools.cache
def _pareto_far_tail_log(alpha: float) -> float:
    """log of the integral of ``t**(a-1) exp(-t)``, a = alpha - 1, over (0, alpha + 700).

    Past t = alpha + 700 the integrand is negligible in double precision, so
    every larger rho shares this value.  Each alpha has one entry, kept for
    the life of the process; a failed quadrature is not cached and raises
    again on the next call.
    """
    a = alpha - 1.0
    label = f"pareto:{alpha!r} gain transform"
    fn = lambda t: t ** (a - 1.0) * math.exp(-t)
    return _checked_log(*_integral(fn, 0.0, alpha + 700.0, label), label)


@dataclass(frozen=True)
class _Pdf:
    """A density as UNU.RAN calls it: ``pdf`` of a float, 0.0 off the open support.

    It holds the density and its bounds, not the law, so that a pickled
    sampler does not refer back to the law that holds it.
    """

    density: Callable[[float], float]
    lower: float
    upper: float

    def pdf(self, y) -> float:
        y = float(y)
        return float(self.density(y)) if self.lower < y < self.upper else 0.0


@dataclass(frozen=True)
class DensityGain(GainModel):
    """Gain law given by an explicit density on (lower, upper).

    The density must integrate to one over its support within 1e-6.  The
    upper bound may be inf.  Draws invert the distribution function
    numerically, through scipy's PINV sampler (``NumericalInversePolynomial``,
    Derflinger, Hörmann and Leydold, ACM TOMACS 20(4), 2010) over the full
    support: each draw takes one uniform from the stream and is its
    quantile within PINV's u-resolution of 1e-10.  The sampler is set up
    once per instance, and again when a pickled instance is loaded, which
    is milliseconds per pool worker.  PINV needs a density that is positive
    on one interval: one that is zero on an interior interval, or that PINV
    cannot interpolate, raises ValueError at construction.

    The density is given on a linear scale, so the transform is accurate
    only while the density is a normal double over the bulk of the
    integrand ``exp(-rho/y) density(y)``.  As the density underflows there,
    the quadrature's error check raises ``QuadratureError``; where the
    density is below the normal doubles at the integrand's peak, the
    transform raises it before integrating.  For ``exp(-y)`` on (0, inf),
    subnormal from y = 708.4 and 0 beyond y = 745.13, the peak is
    ``sqrt(rho)``: the log transform stays within 3e-13 of
    ``ExponentialGain``'s up to rho = 3.6e5 (r = log(1 + rho) = 12.8),
    within 1.1e-7 up to r = 12.94, and raises from r = 12.95 (rho = 4.2e5)
    on.  The transform also raises ``QuadratureError`` where the integral
    on one side of the peak comes out exactly 0, its nodes having all
    missed the mass beside the peak, and where the log transform comes out
    above 1e-9: either value would be wrong.
    """

    density: Callable[[float], float]
    lower: float
    upper: float

    spec = "density"

    def __post_init__(self):
        from scipy.stats.sampling import NumericalInversePolynomial, UNURANError

        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower >= 0.0 or not self.upper > self.lower:
            raise ValueError("need 0 <= lower < upper")
        cut = self._truncation_point()
        mass, estimate = _integral(self.density, self.lower, cut, "user density")
        if math.isinf(self.upper):
            mass += 1e-9  # bound on the discarded tail
        if abs(mass - 1.0) > 1e-6 or estimate > 1e-8:
            raise ValueError(
                f"density mass over the support is {mass:.8f}, not 1 within 1e-6"
            )
        pdf = _Pdf(self.density, self.lower, self.upper)
        grid = np.linspace(self.lower, cut, 4097)[1:-1]
        heights = [pdf.pdf(y) for y in grid]
        peak = int(np.argmax(heights))
        if not heights[peak] > 0.0:
            raise ValueError("density must be positive somewhere on its support")
        try:
            sampler = NumericalInversePolynomial(pdf, center=float(grid[peak]),
                                                 domain=(self.lower, self.upper))
        except UNURANError as exc:
            raise ValueError(f"density cannot be sampled by inversion: {exc}") from None
        # PINV may take a zero of the density for the end of its support, and
        # then loses the mass beyond it without a word.
        for u in (0.25, 0.75):
            below, _ = _integral(self.density, self.lower, float(sampler.ppf(u)),
                                 "user density")
            if abs(below - u * mass) > 1e-6:
                raise ValueError("density cannot be sampled by inversion: it must be "
                                 "positive on one interval, not zero inside its support")
        object.__setattr__(self, "_cut", cut)
        object.__setattr__(self, "_pdf", pdf)
        object.__setattr__(self, "_sampler", sampler)

    def _truncation_point(self) -> float:
        if math.isfinite(self.upper):
            return self.upper
        from scipy.integrate import quad

        cut = max(2.0 * max(self.lower, 1.0), self.lower + 1.0)
        for _ in range(120):
            tail, _ = _integral(self.density, cut, 2.0 * cut, "user density")
            far = quad(self.density, 2.0 * cut, np.inf, epsabs=1e-12, epsrel=1e-8,
                       full_output=1)[0]
            if tail + far < 1e-9:
                return cut
            cut *= 2.0
        raise ValueError("density tail mass does not decay; cannot truncate support")

    def sample(self, rng: np.random.Generator, size=None):
        return self._sampler.rvs(size, random_state=rng)

    def _log_laplace(self, rho: float) -> float:
        log_density = self._log_density
        peak = self._exponent_peak(rho)
        log_peak = log_density(peak)
        if log_peak < math.log(sys.float_info.min):
            raise QuadratureError(f"quadrature for {_DENSITY_LABEL} needs the density at "
                                  f"y = {peak:.6g}, below the normal doubles")
        shift = -rho / peak + log_peak

        def integrand(y: float) -> float:
            lq = log_density(y)
            if lq == -math.inf:
                return 0.0
            return math.exp(-rho / y + lq - shift)

        pieces = [(integrand, self.lower, peak), (integrand, peak, self.upper)]
        if math.isinf(self.upper):
            # u = peak/y folds (peak, inf) onto (0, 1).
            pieces[1] = (lambda u: integrand(peak / u) * peak / (u * u), 0.0, 1.0)
        total = estimate = 0.0
        for fn, a, b in pieces:
            value, err = _integral(fn, a, b, _DENSITY_LABEL)
            # Every piece ends at the peak, where the integrand is positive,
            # so a piece worth exactly 0 is one whose nodes all missed its mass.
            if value == 0.0:
                raise QuadratureError(f"quadrature for {_DENSITY_LABEL} found no mass on "
                                      f"one side of the integrand's peak at y = {peak:.6g}")
            total += value
            estimate += err
        value = shift + _checked_log(total, estimate, _DENSITY_LABEL)
        if value > _LOG_ACCURACY:
            raise QuadratureError(f"quadrature for {_DENSITY_LABEL} gave log transform "
                                  f"{value:.3e}, above 0 by more than {_LOG_ACCURACY:.0e}")
        return value

    def _log_density(self, y: float) -> float:
        height = self._pdf.pdf(y)
        return -math.inf if height <= 0.0 else math.log(height)

    # Where the density is 0 the search's objective is infinite, and for rho
    # near DBL_MAX its grid overflows.  Its steps then meet inf - inf, 0 * inf
    # or an overflow; a NaN makes the bounded search report no success, and
    # the grid point stands.  So these pass without a warning.
    @np.errstate(invalid="ignore", over="ignore")
    def _exponent_peak(self, rho: float) -> float:
        lo = max(self.lower, 1e-12)
        hi = self._cut if math.isfinite(self.upper) else max(self._cut, 10.0 * rho)
        grid = np.geomspace(lo, hi, 512)
        scores = [-rho / y + self._log_density(float(y)) for y in grid]
        k = int(np.argmax(scores))
        if scores[k] == -math.inf:
            raise QuadratureError("density vanishes on its whole support")
        left = grid[max(k - 1, 0)]
        right = grid[min(k + 1, len(grid) - 1)]
        if right > left:
            from scipy.optimize import minimize_scalar

            sol = minimize_scalar(
                lambda y: rho / y - self._log_density(float(y)),
                bounds=(left, right), method="bounded",
            )
            if sol.success and -sol.fun > scores[k]:
                return float(sol.x)
        return float(grid[k])


# The built-in laws by the head of their spec, in MODEL_SPEC_GRAMMAR's order.
_BUILTIN_LAWS = {"constant": ConstantGain, "exp": ExponentialGain, "pareto": ParetoGain,
                 "uniform": UniformGain}
# The laws whose transforms are held to _CLOSED_FORM_ERROR; a subclass may
# change the transform, so the bound goes with these classes alone.
_CLOSED_FORM_LAWS = tuple(_BUILTIN_LAWS.values())


def _whole_number(name: str, value) -> int:
    """``value`` as an int, if it is a whole number of any numeric type.

    Raises:
        ValueError: naming ``name`` and ``value``, for a value that
            ``int`` would truncate or that is no number at all.
    """
    try:
        whole = int(value)
        exact = bool(whole == value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    return whole


def _top_gain(gains: np.ndarray, what: str) -> float:
    """The largest entry of the float array ``gains``.

    Raises ValueError, naming ``what`` and the failed bound, unless every
    entry is a positive finite real.
    """
    # NaN propagates through min and max, so two reductions cover every entry
    # without a temporary of the array's size.
    if not gains.min() > 0.0:
        raise ValueError(f"{what} must be positive finite reals: "
                         "an entry is zero, negative or NaN")
    top = gains.max()
    if not top < math.inf:
        raise ValueError(f"{what} must be positive finite reals: "
                         "a gain overflows a double")
    return top


def _checked_gains(gains, n: int) -> tuple[np.ndarray, float]:
    """``gains`` as a float array, and its largest entry.

    Raises ValueError unless ``gains`` is an n x n matrix of positive finite reals.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (n, n):
        raise ValueError(f"gain matrix shape {gains.shape} does not match n = {n}")
    return gains, _top_gain(gains, "gain matrix entries")


def _log_costs(gains, top: float, rng: np.random.Generator, size) -> np.ndarray:
    """log(1 + gains * fades), computed in the one buffer the fades are drawn into.

    This is the only code that turns gains into costs, so a cost has the
    same bits whichever way it is drawn.  ``gains`` is only read: it may be
    frozen, or memory a model shares; ``top`` is its largest entry.
    ``g*f == f*g`` exactly, and a unit-scale ``exponential`` is
    ``standard_exponential``, so every cost whose ``g*f`` is a finite double
    equals ``np.log1p(gains * rng.exponential(size=size))`` bit for bit.
    Where ``g*f`` overflows for a finite gain, the cost is ``log g + log f``,
    which is log1p(g*f) to within the rounding of the two logs.
    """
    costs = rng.standard_exponential(size=size)
    if not top >= _OVERFLOW_GAIN:
        np.multiply(gains, costs, out=costs)
        return np.log1p(costs, out=costs)
    # Only a fade of at least DBL_MAX / top, as rounded, can overflow g*f:
    # keep those fades before the buffer is overwritten.
    near = costs >= sys.float_info.max / top
    fades = costs[near]
    with np.errstate(over="ignore"):
        np.multiply(gains, costs, out=costs)
    np.log1p(costs, out=costs)
    over = costs == math.inf
    costs[over] = np.log(np.broadcast_to(gains, costs.shape)[over]) + np.log(fades[over[near]])
    return costs


def sample_cost(model: GainModel, rng: np.random.Generator, size=None):
    """Draw link costs log(1 + g*f), gains before fades.

    A float when ``size`` is None, else an ndarray.  The float is the one
    cost of ``size=1``, bit for bit: its gain is drawn as an array too,
    since a law's scalar draw may round differently (Pareto's float power
    is libm's, its array power numpy's).  Raises ValueError, after the
    gains are drawn and before the fades, unless every gain is a positive
    finite real.
    """
    if size is None:
        return float(sample_cost(model, rng, size=1)[0])
    gains = np.asarray(model.sample(rng, size=size), dtype=float)
    return _log_costs(gains, _top_gain(gains, "sampled gains"), rng, size)


def generate_cost_matrix(
    model: GainModel,
    n: int,
    rng: np.random.Generator,
    gain_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Cost matrix with independent entries log(1 + g_ij * f_ij).

    Without ``gain_matrix`` both gains and fades are drawn fresh from
    ``rng`` (gains first), as an annealed replicate draws.  With it, the
    given gains are held fixed and only the fades are drawn, as a quenched
    replicate draws over its size's frozen gains.  Either way the gains
    must form an n x n matrix of positive finite reals, else ValueError;
    they are checked at each call, by one min and one max, and never
    written to.
    """
    n = _whole_number("matrix order n", n)
    if n < 1:
        raise ValueError("matrix order n must be at least 1")
    if gain_matrix is None:
        gain_matrix = model.sample(rng, size=(n, n))
    gains, top = _checked_gains(gain_matrix, n)
    return _log_costs(gains, top, rng, (n, n))


def parse_model_spec(text: str) -> GainModel:
    """Build a gain model from a spec string.

    Grammar (case-insensitive): ``constant:<c> | exp | pareto:<alpha> | uniform``.
    A built-in law's ``spec`` parses back to an equal model; ``density`` and
    the specs of laws defined elsewhere do not parse.
    """
    head, sep, tail = str(text).strip().lower().partition(":")
    law = _BUILTIN_LAWS.get(head)
    # A law with a field takes its one parameter after the colon; one without takes none.
    if law is None or bool(sep) != bool(fields(law)):
        raise ModelSpecError(
            f"unrecognized model spec {text!r}; expected {MODEL_SPEC_GRAMMAR}"
        )
    if not sep:
        return law()
    try:
        parameter = float(tail)
    except ValueError:
        raise ModelSpecError(
            f"bad numeric parameter {tail!r} in model spec {text!r}; "
            f"expected {MODEL_SPEC_GRAMMAR}"
        ) from None
    try:
        return law(parameter)
    except ValueError as exc:
        raise ModelSpecError(f"model spec {text!r}: {exc}") from None

