"""Gain models: sampling laws, transforms against oracles, spec parsing."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy import special
from scipy.integrate import quad

from logassign import (
    MODEL_SPEC_GRAMMAR,
    ConstantGain,
    DensityGain,
    ExponentialGain,
    GainModel,
    ModelSpecError,
    ParetoGain,
    QuadratureError,
    UniformGain,
    generate_cost_matrix,
    parse_model_spec,
    sample_cost,
)
from logassign import gains

BUILTINS = (ConstantGain(1.0), ExponentialGain(), ParetoGain(3.0), UniformGain())


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))


# --- spec strings ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("exp", ExponentialGain()),
        ("EXP", ExponentialGain()),
        ("uniform", UniformGain()),
        ("constant:1.5", ConstantGain(1.5)),
        ("Pareto:2.5", ParetoGain(2.5)),
        ("  pareto:3  ", ParetoGain(3.0)),
    ],
)
def test_parse_model_spec(text: str, expected) -> None:
    assert parse_model_spec(text) == expected


@pytest.mark.parametrize(
    "text", ["", "exp:1", "gauss", "constant", "constant:zero", "pareto:-2", "pareto:1"]
)
def test_malformed_or_invalid_specs_are_rejected(text: str) -> None:
    with pytest.raises(ModelSpecError):
        parse_model_spec(text)


def test_rejection_message_names_the_grammar() -> None:
    with pytest.raises(ModelSpecError, match="constant:<c>"):
        parse_model_spec("weibull:2")


def test_the_grammar_names_each_built_in_law_and_whether_it_takes_a_parameter() -> None:
    alternatives = [text.strip().partition(":") for text in MODEL_SPEC_GRAMMAR.split("|")]
    assert [head for head, _, _ in alternatives] == list(gains._BUILTIN_LAWS)
    assert [bool(colon) for _, colon, _ in alternatives] == [
        bool(dataclasses.fields(law)) for law in gains._BUILTIN_LAWS.values()]


def test_spec_strings_round_trip() -> None:
    for model in (*BUILTINS, ConstantGain(0.25), ParetoGain(1.75)):
        assert parse_model_spec(model.spec) == model


def test_parameter_validation() -> None:
    with pytest.raises(ValueError):
        ConstantGain(0.0)
    with pytest.raises(ValueError):
        ConstantGain(-1.0)
    with pytest.raises(ValueError):
        ParetoGain(1.0)


# --- transforms -----------------------------------------------------------


def test_transform_is_one_at_zero_for_every_model() -> None:
    for model in BUILTINS:
        assert model.log_laplace(0.0) == 0.0


def test_transform_input_validation() -> None:
    model = ExponentialGain()
    with pytest.raises(ValueError):
        model.log_laplace(-1.0)
    with pytest.raises(ValueError):
        model.log_laplace(math.nan)
    assert model.log_laplace(math.inf) == -math.inf
    with pytest.raises(ValueError):
        model.log_laplace_asymptotic(0.0)
    # The constant law's asymptotic form is defined at every rho, so only
    # the check refuses these.
    for rho in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive finite"):
            ConstantGain(1.0).log_laplace_asymptotic(rho)


def test_constant_transform_closed_form() -> None:
    model = ConstantGain(2.5)
    for rho in (0.5, 7.0, 1e4, 1e6):
        assert model.log_laplace(rho) == -rho / 2.5


def test_exponential_transform_against_bessel_oracle() -> None:
    # E exp(-rho/g) for unit exponential g equals 2 sqrt(rho) K1(2 sqrt(rho)).
    model = ExponentialGain()
    for rho in (1e-3, 0.1, 0.9, 1.0, 1.1, 4.0, 37.0, 1e4, 1e6):
        s = math.sqrt(rho)
        oracle = math.log(2.0 * s * special.k1e(2.0 * s)) - 2.0 * s
        assert model.log_laplace(rho) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_uniform_transform_against_exponential_integral_oracle() -> None:
    # Integrating exp(-rho/y) over (0, 1) gives exp(-rho) - rho * E1(rho).
    model = UniformGain()
    for rho in (1e-3, 0.2, 1.0, 2.0, 9.0, 55.0, 300.0):
        oracle = math.log(math.exp(-rho) - rho * special.exp1(rho))
        assert model.log_laplace(rho) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
def test_pareto_transform_against_incomplete_gamma_oracle(alpha: float) -> None:
    model = ParetoGain(alpha)
    a = alpha - 1.0
    for rho in (1e-4, 0.3, 1.0, 2.0, 40.0, 1e4, 1e8):
        oracle = (
            math.log(a)
            + special.gammaln(a)
            + math.log(special.gammainc(a, rho))
            - a * math.log(rho)
        )
        assert model.log_laplace(rho) == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def _far_tail_log(alpha: float) -> float:
    """The far-tail log integral of pareto:<alpha>, integrated here and now."""
    a = alpha - 1.0
    return gains._checked_log(
        *gains._integral(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, alpha + 700.0),
        "pareto gain transform",
    )


@pytest.fixture
def fresh_far_tails():
    """An empty far-tail memo, for a test that patches ``gains._integral``.

    It is emptied again afterwards, so no value computed under a patch
    outlives the test.
    """
    gains._pareto_far_tail_log.cache_clear()
    yield
    gains._pareto_far_tail_log.cache_clear()


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_pareto_far_tail_is_integrated_once_per_alpha(
        alpha: float, monkeypatch, fresh_far_tails) -> None:
    a, other = alpha - 1.0, alpha + 0.5
    cut = alpha + 700.0
    direct, other_direct = _far_tail_log(alpha), _far_tail_log(other)
    calls = []
    integral = gains._integral

    def counted(fn, lo, hi, label="integrand"):
        calls.append((lo, hi))
        return integral(fn, lo, hi, label)

    monkeypatch.setattr(gains, "_integral", counted)
    model = ParetoGain(alpha)
    assert calls == []
    for rho in (cut, 2.0 * cut, 1e12):
        assert model.log_laplace(rho) == math.log(a) - a * math.log(rho) + direct
    assert calls == [(0.0, cut)]
    assert vars(model) == {"alpha": alpha}
    # Below the cut the closed form runs no quadrature.
    model.log_laplace(cut - 1.0)
    assert calls == [(0.0, cut)]
    # A second instance of the same law runs none either, nor does a
    # subclass, even one that is not hashable.
    class Unhashable(ParetoGain):
        __hash__ = None

    assert ParetoGain(alpha).log_laplace(1e12) == model.log_laplace(1e12)
    assert Unhashable(alpha).log_laplace(1e12) == model.log_laplace(1e12)
    assert calls == [(0.0, cut)]
    # A different alpha runs one of its own.
    assert ParetoGain(other).log_laplace(1e12) == (
        math.log(other - 1.0) - (other - 1.0) * math.log(1e12) + other_direct)
    assert calls == [(0.0, cut), (0.0, other + 700.0)]


def test_pareto_far_tail_cache_leaves_identity_and_pickling_alone() -> None:
    model = parse_model_spec("pareto:1.5")
    pickled, hashed = pickle.dumps(model), hash(model)
    model.log_laplace(1e12)
    assert model == ParetoGain(1.5) and hash(model) == hashed
    assert pickle.dumps(model) == pickled
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and vars(copy) == {"alpha": 1.5}
    assert copy.log_laplace(1e12) == model.log_laplace(1e12)


def test_pareto_far_tail_failure_raises_when_evaluated(monkeypatch, fresh_far_tails) -> None:
    monkeypatch.setattr(gains, "_integral", lambda fn, lo, hi, points=None: (1.0, 1.0))
    model = ParetoGain(2.0)
    for _ in range(2):
        with pytest.raises(QuadratureError, match=r"pareto:2\.0 gain transform"):
            model.log_laplace(1e6)
    assert gains._pareto_far_tail_log.cache_info().currsize == 0


# rho across the whole range of a double, every five decades; each law adds
# the points where it changes formula.
_EDGE_RHOS = (*np.geomspace(1e-300, 1e300, 121), 5e-324, 1e-100, 1e12)
_ORACLE_LAWS = (
    ExponentialGain(),
    UniformGain(),
    *(ParetoGain(alpha) for alpha in (1.05, 1.5, 3.0, 7.5, 400.0)),
)


def _edge_rhos(model) -> tuple[float, ...]:
    if isinstance(model, ParetoGain):
        cut = model.alpha + 700.0
        return (*_EDGE_RHOS, model.alpha, cut - 1.0, cut, cut + 1.0)
    if isinstance(model, ExponentialGain):
        return (*_EDGE_RHOS, 1e-7, 2.5e7)
    return (*_EDGE_RHOS, 700.0, 710.0, 1e4)


def _reference_log_laplace(model, rho: float):
    """log E exp(-rho/g) to 40 digits, from mpmath's special functions."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        rho = mp.mpf(rho)
        if isinstance(model, ExponentialGain):
            s = 2 * mp.sqrt(rho)
            return float(mp.log(s * mp.besselk(1, s)))
        if isinstance(model, UniformGain):
            return float(mp.log(mp.expint(2, rho)))
        a = mp.mpf(model.alpha) - 1
        return float(mp.log(a) - a * mp.log(rho) + mp.log(mp.gammainc(a, 0, rho)))


@pytest.mark.parametrize("model", _ORACLE_LAWS, ids=lambda model: model.spec)
def test_closed_form_transforms_match_a_40_digit_oracle(model) -> None:
    for rho in _edge_rhos(model):
        rho = float(rho)
        if isinstance(model, ParetoGain) and model.alpha > 106.0 and rho >= model.alpha + 700.0:
            # The far tail is still one quadrature, whose integrand
            # overflows for alpha above about 106.
            with pytest.raises(QuadratureError, match=model.spec):
                model.log_laplace(rho)
            continue
        reference = _reference_log_laplace(model, rho)
        value = model.log_laplace(rho)
        assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference)), rho


def test_only_the_four_closed_form_laws_state_an_error_bound() -> None:
    # Ten times the 1e-13 that the oracle above holds them to.
    for model in (ConstantGain(2.5), *_ORACLE_LAWS):
        assert model._log_laplace_error() == 1e-12

    class Halved(ExponentialGain):
        def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
            return super()._log_laplace_batch(rho / 2.0)

    # A subclass may change the transform, so it states no bound of its own.
    assert Halved()._log_laplace_error() is None
    assert UnitGain()._log_laplace_error() is None
    flat = DensityGain(density=lambda y: 1.0, lower=1.0, upper=2.0)
    assert flat._log_laplace_error() is None


# Points on every branch of each built-in transform, with the SHA-256 of the
# little-endian doubles log_laplace gives there, sorted by rho.  exp: rho <
# 1e-7, kve, and s = 2 sqrt(rho) >= 1e4, where 128 s s overflows from about
# 3.5e305; uniform: expn, hyperu past about 700, and the series from 1e4;
# pareto: rho < alpha, gammainc, and the far tail from alpha + 700.
_COMMON_RHOS = (5e-324, 1e-300, 1e-20, 1e-9, 1e-4, 0.3, 1.0, 7.5, 100.0, 1e6, 1e12, 1e100,
                1e300, sys.float_info.max)
_PINNED_TRANSFORMS = {
    "exp": (ExponentialGain(), (9.9e-8, 1e-7, 2.4999e7, 2.5e7, 1e8, 1e305, 1e306, 1.7e308),
            "d1b45ed8cda87ec8e6d243c3a37ee1a921e97a88d93b6a74a94718ca2bbea0c8"),
    "uniform": (UniformGain(), (690.0, 700.0, 705.0, 710.0, 1000.0, 9999.0, 1e4, 1e5),
                "0a89cf64f8f34d6a7e5430fe2b188ac20b95b969766f48c673b67003ffa2de20"),
    "pareto:1.5": (ParetoGain(1.5), (1.4999, 1.5, 2.0, 701.4, 701.5, 1000.0),
                   "9d33ed97863f61d8f00d5b24acd0aa108977160bd6d16bfa179dae782b8003cd"),
    "pareto:3.0": (ParetoGain(3.0), (2.9999, 3.0, 10.0, 702.9, 703.0, 1000.0),
                   "356e172cceb02634a7b72ac5784961997aeef97dd1b35ee1940ef30091f42165"),
    "constant:2.5": (ConstantGain(2.5), (),
                     "a2830e76968c19b38234106c9b86ad56e3592cf6ffd58c7f3781862bdaefb8f1"),
}


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("spec", _PINNED_TRANSFORMS)
def test_builtin_transforms_keep_every_bit(spec: str) -> None:
    model, extra, expected = _PINNED_TRANSFORMS[spec]
    rhos = sorted((*_COMMON_RHOS, *extra))
    assert _sha256([model.log_laplace(rho) for rho in rhos]) == expected
    # The batch form, over the whole grid at once and in reverse.
    assert _sha256(model._log_laplace_values(np.array(rhos))) == expected
    assert _sha256(model._log_laplace_values(np.array(rhos[::-1]))[::-1]) == expected


@pytest.mark.parametrize("model", (ExponentialGain(), UniformGain()), ids=lambda model: model.spec)
def test_exponential_and_uniform_transforms_run_no_quadrature(model, monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    # gains imports quad inside the functions that integrate, from here.
    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for rho in _EDGE_RHOS:
        assert model.log_laplace(float(rho)) <= 0.0


@pytest.mark.parametrize(
    "model", (*BUILTINS, ParetoGain(1.05), ParetoGain(7.5)), ids=lambda model: model.spec
)
def test_transform_is_nonpositive_and_nonincreasing_at_every_scale(model) -> None:
    values = [model.log_laplace(float(rho)) for rho in np.geomspace(1e-300, 1e300, 121)]
    assert all(value <= 0.0 for value in values)
    assert all(math.isfinite(value) or value == -math.inf for value in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_log_laplace_clamps_a_positive_value_to_zero() -> None:
    class RoundedUp(ExponentialGain):
        def _log_laplace_batch(self, rho: np.ndarray) -> np.ndarray:
            return np.full(rho.shape, 1e-14)

    assert RoundedUp().log_laplace(1e-20) == 0.0
    assert RoundedUp()._log_laplace_values(np.array([1e-20, 1.0])).tolist() == [0.0, 0.0]


def test_an_overflowing_integrand_raises_quadrature_error_naming_the_law() -> None:
    model = ParetoGain(150.0)
    assert math.isfinite(model.log_laplace(849.0))
    with pytest.raises(QuadratureError, match=r"pareto:150\.0 gain transform.*overflow"):
        model.log_laplace(1e4)


def test_transform_strictly_decreasing_in_rho() -> None:
    grid = np.geomspace(1e-2, 1e6, 33)
    for model in BUILTINS:
        values = [model.log_laplace(rho) for rho in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_transform_survives_huge_rho_without_underflow() -> None:
    for model in BUILTINS:
        value = model.log_laplace(1e6)
        assert math.isfinite(value)
        assert value < -10.0


def test_asymptotic_form_close_at_large_rho() -> None:
    checks = [
        (ConstantGain(2.5), 1e-15),  # exact at every rho
        (ExponentialGain(), 0.01),
        (UniformGain(), 0.01),
        (ParetoGain(2.0), 0.005),
        (ParetoGain(3.0), 0.005),
    ]
    for model, bound in checks:
        exact = model.log_laplace(1e4)
        approx = model.log_laplace_asymptotic(1e4)
        assert abs(exact - approx) / abs(exact) < bound


def test_asymptotic_agreement_improves_along_rho() -> None:
    # Exponential and uniform gains carry algebraic corrections, so their
    # relative gap shrinks strictly along a geometric rho ladder.
    for model in (ExponentialGain(), UniformGain()):
        gaps = []
        for rho in (1e2, 1e3, 1e4):
            exact = model.log_laplace(rho)
            gaps.append(abs(exact - model.log_laplace_asymptotic(rho)) / abs(exact))
        assert gaps[0] > gaps[1] > gaps[2]


def test_pareto_asymptotic_is_exponentially_accurate() -> None:
    # The polynomial-tail transform equals its leading form up to an
    # exp(-rho) remainder, which is far below quadrature precision here, so
    # the gap is noise rather than a decreasing sequence.
    model = ParetoGain(2.0)
    for rho in (1e2, 1e3, 1e4):
        exact = model.log_laplace(rho)
        gap = abs(exact - model.log_laplace_asymptotic(rho)) / abs(exact)
        assert gap < 1e-10


def test_exponential_asymptotic_matches_spot_value() -> None:
    # log(sqrt(pi) * rho**0.25 * exp(-2 sqrt(rho))) at rho = 1e4.
    expected = 0.5 * math.log(math.pi) + 0.25 * math.log(1e4) - 200.0
    assert expected == pytest.approx(-197.125, abs=1e-3)
    assert ExponentialGain().log_laplace_asymptotic(1e4) == pytest.approx(expected)
    assert ExponentialGain().log_laplace(1e4) == pytest.approx(expected, rel=1e-4)


def test_pareto_asymptotic_spot_value() -> None:
    # alpha = 2 makes the prefactor log(1 * Gamma(1)) vanish.
    assert ParetoGain(2.0).log_laplace_asymptotic(100.0) == pytest.approx(
        -math.log(100.0)
    )


class UnitGain(GainModel):
    """Gain 1 on every link: a law defined outside the package, with no closed forms."""

    spec = "unit"

    def sample(self, rng, size):
        return np.ones(size)

    def _log_laplace_batch(self, rho):
        return -rho


@pytest.mark.parametrize("law", [GainModel, ConstantGain, ExponentialGain, UniformGain,
                                 ParetoGain, DensityGain, UnitGain], ids=lambda law: law.__name__)
def test_a_law_draws_gains_only_as_an_array(law) -> None:
    size = inspect.signature(law.sample).parameters["size"]
    assert size.default is inspect.Parameter.empty


def test_a_law_gives_its_transform_as_one_array_function() -> None:
    class NoTransform(GainModel):
        spec = "none"

    with pytest.raises(NotImplementedError, match="NoTransform lacks _log_laplace_batch"):
        NoTransform().log_laplace(1.0)
    with pytest.raises(NotImplementedError, match="NoTransform lacks _log_laplace_batch"):
        NoTransform()._log_laplace_values(np.array([1.0]))
    # The transform at one rho is the batch at that point.
    rhos = np.array([1e-9, 0.5, 7.0, 1e4, 1e8])
    assert UnitGain()._log_laplace_values(rhos).tolist() == (-rhos).tolist()
    assert [UnitGain().log_laplace(rho) for rho in rhos.tolist()] == (-rhos).tolist()
    assert ExponentialGain()._log_laplace_values(rhos).tolist() == [
        ExponentialGain().log_laplace(rho) for rho in rhos.tolist()]


@pytest.mark.parametrize("name", ["_log_laplace", "log_laplace"])
@pytest.mark.parametrize("parent", [GainModel, ExponentialGain, UnitGain],
                         ids=lambda parent: parent.__name__)
def test_a_law_with_a_scalar_transform_is_refused_when_it_is_defined(name, parent) -> None:
    # Else its parent's transform, or none, would be solved in its place.
    with pytest.raises(TypeError, match=f"Halved defines {name}: .* _log_laplace_batch"):
        type("Halved", (parent,), {name: lambda self, rho: -rho / 2.0})


def test_user_density_has_no_asymptotic_form() -> None:
    flat = DensityGain(density=lambda y: 1.0, lower=1.0, upper=2.0)
    with pytest.raises(ValueError, match="DensityGain has no closed-form"):
        flat.log_laplace_asymptotic(10.0)
    # A law defined elsewhere signals a missing closed form the same way.
    with pytest.raises(ValueError, match="UnitGain has no closed-form"):
        UnitGain().log_laplace_asymptotic(10.0)
    with pytest.raises(ValueError, match="UnitGain has no closed-form"):
        UnitGain()._quantile_law(10.0)


def test_user_density_transform_against_closed_form() -> None:
    # For the flat density on (1, 2) the transform reduces to exponential
    # integrals: rho * [(e^-a/a - e^-b/b) - (E1(a) - E1(b))], a = rho/2, b = rho.
    flat = DensityGain(density=lambda y: 1.0, lower=1.0, upper=2.0)
    for rho in (0.5, 5.0, 50.0, 500.0):
        a, b = rho / 2.0, rho
        exact = rho * (
            (math.exp(-a) / a - math.exp(-b) / b) - (special.exp1(a) - special.exp1(b))
        )
        assert flat.log_laplace(rho) == pytest.approx(math.log(exact), rel=1e-8)


# Densities with a closed-form transform: (density, lower, upper, log
# transform of an mpmath rho).  The flat one is that of the test above.
_DENSITIES_IN_CLOSED_FORM = {
    "root": (lambda y: 0.5 / math.sqrt(y), 0.0, 1.0,
             lambda mp, rho: mp.log(mp.exp(-rho) - mp.sqrt(mp.pi * rho) * mp.erfc(mp.sqrt(rho)))),
    "flat": (lambda y: 1.0, 1.0, 2.0,
             lambda mp, rho: mp.log(rho * ((mp.exp(-rho / 2) / (rho / 2) - mp.exp(-rho) / rho)
                                           - (mp.e1(rho / 2) - mp.e1(rho))))),
}


@pytest.mark.parametrize("name,rho", [
    *(("root", rho) for rho in (1e-14, 1e-9, 3.2e-8, 1e-3, 1.0, 1e3, 3.6e5, 1e6)),
    *(("flat", rho) for rho in (1e-9, 1.0, 1e5, 4e6)),
])
def test_user_density_transform_is_right_or_raises(name: str, rho: float) -> None:
    # Where the quadrature misses the mass beside the integrand's peak, or
    # rounds the transform above 1, the value it would give is wrong.
    mp = pytest.importorskip("mpmath")
    density, lower, upper, exact = _DENSITIES_IN_CLOSED_FORM[name]
    with mp.workdps(40):
        reference = float(exact(mp, mp.mpf(rho)))
    try:
        value = DensityGain(density=density, lower=lower, upper=upper).log_laplace(rho)
    except QuadratureError:
        # Over this middle range the quadrature holds, so it must not raise.
        assert not 1e-3 <= rho <= 1e3
        return
    assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


def test_user_density_with_infinite_support_matches_builtin() -> None:
    as_density = DensityGain(density=lambda y: math.exp(-y), lower=0.0, upper=math.inf)
    builtin = ExponentialGain()
    for rho in (0.5, 10.0, 1e4):
        assert as_density.log_laplace(rho) == pytest.approx(
            builtin.log_laplace(rho), rel=1e-7, abs=1e-7
        )


def test_user_density_transform_holds_while_the_density_is_a_normal_double() -> None:
    # exp(-y) is subnormal from y = 708, and the integrand peaks at sqrt(rho).
    as_density = DensityGain(density=lambda y: math.exp(-y), lower=0.0, upper=math.inf)
    assert as_density.log_laplace(1e5) == pytest.approx(
        ExponentialGain().log_laplace(1e5), rel=0.0, abs=1e-9)
    with pytest.raises(QuadratureError):
        as_density.log_laplace(1e6)
    # Here the quadrature of the underflowed density would converge, to a wrong value.
    with pytest.raises(QuadratureError, match="below the normal doubles"):
        as_density.log_laplace(4e6)


@pytest.mark.parametrize("r", [13.15, 500.0])
def test_user_density_peak_search_past_the_density_raises_without_a_warning(r) -> None:
    # Beyond y = 745 exp(-y) is 0, so the peak search meets an infinite
    # objective; its NaN steps must not warn.
    as_density = DensityGain(density=lambda y: math.exp(-y), lower=0.0, upper=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="below the normal doubles"):
            as_density.log_laplace(math.expm1(r))


def test_user_density_must_be_normalized() -> None:
    with pytest.raises(ValueError):
        DensityGain(density=lambda y: 2.0, lower=1.0, upper=2.0)


@pytest.mark.parametrize("lower, upper", [(1.0, 1.0), (2.0, 1.0), (-1.0, 1.0),
                                          (math.nan, 1.0), (0.0, math.nan)])
def test_user_density_needs_a_support_of_positive_length(lower: float, upper: float) -> None:
    with pytest.raises(ValueError, match="need 0 <= lower < upper"):
        DensityGain(density=lambda y: 1.0, lower=lower, upper=upper)


def test_user_density_whose_tail_mass_does_not_decay_is_refused() -> None:
    # 1 / (y log(y)**2) on (e, inf) has mass 1, but its tail beyond y falls
    # only as 1 / log(y).
    with pytest.raises(ValueError, match="tail mass does not decay"):
        DensityGain(density=lambda y: 1.0 / (y * math.log(y) ** 2), lower=math.e,
                    upper=math.inf)


# --- sampling -------------------------------------------------------------


def test_pareto_inverse_cdf_closed_form() -> None:
    model = ParetoGain(3.0)
    for u in (0.0, 0.19, 0.5, 0.84, 0.99):
        assert model.inverse_cdf(u) == (1.0 - u) ** -0.5


@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0, 3.0, 7.5, 150.0])
def test_pareto_inverse_cdf_equals_the_plain_power_bit_for_bit(alpha: float) -> None:
    # Exponents -2 and -1 (alpha 1.5 and 2) take numpy's scalar-power fast
    # paths; the in-place power must take them too.
    model, exponent = ParetoGain(alpha), -1.0 / (alpha - 1.0)
    for n in (1, 3, 1000):
        u = _rng(n).random(size=(n, n))
        before = u.copy()
        expected = (1.0 - u) ** exponent
        assert model.inverse_cdf(u).tobytes() == expected.tobytes()
        assert u.tobytes() == before.tobytes()
    for u in [0.0, *_rng(7).random(size=200).tolist()]:
        got, expected = model.inverse_cdf(u), (1.0 - u) ** exponent
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_pareto_sample_mean_matches_first_moment() -> None:
    # E g = (alpha - 1)/(alpha - 2) = 2 for alpha = 3; the tail is heavy,
    # so the bound stays loose even at a million draws.
    draws = ParetoGain(3.0).sample(_rng(101), size=1_000_000)
    assert float(draws.min()) >= 1.0
    assert float(draws.mean()) == pytest.approx(2.0, abs=0.02)


@pytest.mark.parametrize("size", [(1000, 1000), None])
def test_exponential_draws_are_numpys_unit_exponential_bit_for_bit(size) -> None:
    ours, numpys = _rng(17), _rng(17)
    drawn = ExponentialGain().sample(ours, size=size)
    expected = numpys.exponential(size=size)
    assert type(drawn) is type(expected)
    assert np.asarray(drawn).tobytes() == np.asarray(expected).tobytes()
    # Both streams stop at the same place.
    assert ours.bit_generator.random_raw(4).tolist() == numpys.bit_generator.random_raw(4).tolist()


def test_constant_sample_consumes_no_randomness() -> None:
    model = ConstantGain(1.7)
    rng = _rng(55)
    probe = _rng(55).random(16)
    assert model.sample(rng, size=1).tolist() == [1.7]
    assert np.all(model.sample(rng, size=(3, 3)) == 1.7)
    assert np.array_equal(rng.random(16), probe)


def test_uniform_samples_live_in_unit_interval() -> None:
    draws = UniformGain().sample(_rng(7), size=10_000)
    assert float(draws.min()) >= 0.0
    assert float(draws.max()) < 1.0
    assert float(draws.mean()) == pytest.approx(0.5, abs=0.02)


def test_sampling_is_bit_reproducible() -> None:
    for model in BUILTINS:
        first = model.sample(_rng(13), size=256)
        second = model.sample(_rng(13), size=256)
        assert np.array_equal(first, second)


def test_user_density_sampling_tracks_the_density() -> None:
    tent = DensityGain(density=lambda y: 1.0 - abs(y - 1.0), lower=0.0, upper=2.0)
    rng = _rng(29)
    draws = tent.sample(rng, size=200_000)
    assert 0.0 < float(draws.min()) and float(draws.max()) < 2.0
    # Mass below the midpoint is exactly one half for the symmetric tent.
    assert float(np.mean(draws < 1.0)) == pytest.approx(0.5, abs=0.01)
    assert float(draws.mean()) == pytest.approx(1.0, abs=0.01)
    # One uniform per draw: the stream goes on where 200000 uniforms leave it.
    uniforms = _rng(29)
    uniforms.random(200_000)
    assert rng.random() == uniforms.random()


def test_user_density_sampling_follows_an_unbounded_density() -> None:
    # P(Y < t) = sqrt(t) for 0.5/sqrt(y) on (0, 1), which exceeds every
    # height a grid of the density can see.
    root = DensityGain(density=lambda y: 0.5 / math.sqrt(y), lower=0.0, upper=1.0)
    draws = root.sample(_rng(31), size=200_000)
    assert float(np.mean(draws < 0.01)) == pytest.approx(0.1, abs=0.002)


def test_user_density_sampling_covers_an_infinite_support() -> None:
    as_density = DensityGain(density=lambda y: math.exp(-y), lower=0.0, upper=math.inf)
    n = 200_000
    draws = as_density.sample(_rng(37), size=n)
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        p = math.exp(-t)
        assert abs(float(np.mean(draws >= t)) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("left, right", [(0.5, 0.5), (0.25, 0.75)])
def test_user_density_that_vanishes_inside_its_support_is_refused(left, right) -> None:
    # Zero on [1, 2]: the sampler either loses the mass past the gap, or
    # refuses to set up, depending on which side its search starts.
    def gapped(y: float) -> float:
        return left if 0.0 < y < 1.0 else right if 2.0 < y < 3.0 else 0.0

    with pytest.raises(ValueError, match="cannot be sampled by inversion"):
        DensityGain(density=gapped, lower=0.0, upper=3.0)


def test_cost_sample_mean_matches_quadrature_oracle() -> None:
    # With unit constant gain the mean cost is the integral of
    # log(1 + x) e^-x over (0, inf), about 0.59635.
    oracle = quad(lambda x: math.log1p(x) * math.exp(-x), 0.0, np.inf)[0]
    assert oracle == pytest.approx(math.e * special.exp1(1.0), rel=1e-10)
    draws = sample_cost(ConstantGain(1.0), _rng(401), size=1_000_000)
    assert float(draws.mean()) == pytest.approx(oracle, abs=0.003)


def test_scalar_cost_sample_is_a_float() -> None:
    value = sample_cost(ExponentialGain(), _rng(3))
    assert isinstance(value, float)
    assert value >= 0.0


@pytest.mark.slow
def test_tail_frequency_matches_transform() -> None:
    # P(cost >= r) = E exp(-(e^r - 1)/g), checked at a million draws.
    n = 1_000_000
    for seed, model in enumerate(BUILTINS):
        costs = sample_cost(model, _rng(600 + seed), size=n)
        for r in (0.5, 1.0, 2.0, 3.0):
            hit = float(np.mean(costs >= r))
            p = math.exp(model.log_laplace(math.expm1(r)))
            spread = math.sqrt(p * (1.0 - p) / n)
            assert abs(hit - p) <= 3.0 * spread


# --- cost matrices --------------------------------------------------------


def test_cost_matrix_shape_and_positivity() -> None:
    matrix = generate_cost_matrix(ExponentialGain(), 6, _rng(1))
    assert matrix.shape == (6, 6)
    assert np.all(matrix >= 0.0)
    assert np.all(np.isfinite(matrix))


def test_cost_matrix_is_seed_deterministic() -> None:
    first = generate_cost_matrix(ParetoGain(2.5), 8, _rng(9))
    second = generate_cost_matrix(ParetoGain(2.5), 8, _rng(9))
    assert np.array_equal(first, second)


def test_quenched_matrix_uses_the_given_gains() -> None:
    gains = np.full((4, 4), 2.0)
    matrix = generate_cost_matrix(ConstantGain(1.0), 4, _rng(21), gain_matrix=gains)
    fades = _rng(21).exponential(size=(4, 4))
    assert np.array_equal(matrix, np.log1p(2.0 * fades))


def test_quenched_gain_matrix_validation() -> None:
    model = ExponentialGain()
    with pytest.raises(ValueError):
        generate_cost_matrix(model, 4, _rng(2), gain_matrix=np.ones((3, 4)))
    bad = np.ones((4, 4))
    bad[2, 2] = 0.0
    with pytest.raises(ValueError):
        generate_cost_matrix(model, 4, _rng(2), gain_matrix=bad)
    with pytest.raises(ValueError):
        generate_cost_matrix(model, 0, _rng(2))
    with pytest.raises(ValueError, match="^matrix order n must be a whole number, not 4.5$"):
        generate_cost_matrix(model, 4.5, _rng(2))
    assert np.array_equal(generate_cost_matrix(model, 4.0, _rng(2)),
                          generate_cost_matrix(model, 4, _rng(2)))


def _tent(y: float) -> float:
    return 1.0 - abs(y - 1.0)


LAWS = (ExponentialGain(), UniformGain(), ParetoGain(3.0), ConstantGain(2.5),
        DensityGain(density=_tent, lower=0.0, upper=2.0))


@pytest.mark.parametrize("n", [1, 3, 1000])
@pytest.mark.parametrize("model", LAWS, ids=lambda model: model.spec)
def test_costs_keep_the_bytes_of_the_plain_formula(model, n: int) -> None:
    def plain(gains, rng):
        return np.log1p(gains * rng.exponential(size=(n, n)))

    def same_bytes(a, b) -> bool:
        return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))

    rng = _rng(70 + n)
    expected = plain(model.sample(rng, size=(n, n)), rng)
    assert same_bytes(generate_cost_matrix(model, n, _rng(70 + n)), expected)
    assert same_bytes(sample_cost(model, _rng(70 + n), size=(n, n)), expected)
    frozen = model.sample(_rng(90), size=(n, n))
    rng = _rng(80 + n)
    expected = plain(frozen, rng)
    assert same_bytes(generate_cost_matrix(model, n, _rng(80 + n), gain_matrix=frozen),
                      expected)
    rng = _rng(7)
    expected = np.log1p(model.sample(rng, size=1) * rng.exponential(size=1))[0]
    assert sample_cost(model, _rng(7)) == expected


@pytest.mark.parametrize("model", LAWS, ids=lambda model: model.spec)
def test_a_scalar_cost_is_the_cost_of_a_batch_of_one(model) -> None:
    # numpy's log1p and power differ from libm's in the last bit on some
    # inputs, so a scalar formula would not give these bits.  Seeded streams
    # (not _rng's keys) hit such inputs for every law here.
    for seed in range(40):
        scalar = sample_cost(model, np.random.Generator(np.random.Philox(seed)))
        batch = sample_cost(model, np.random.Generator(np.random.Philox(seed)), size=1)
        assert type(scalar) is float
        assert scalar == batch[0]


@pytest.mark.parametrize("top", [3e307, 1e308, sys.float_info.max])
def test_a_cost_whose_product_overflows_is_the_sum_of_the_logs(top: float) -> None:
    # Where g*f overflows, the cost is log g + log f, with no overflow
    # warning; every other cost keeps the bits of the plain formula.
    def check(costs, gains, fades) -> None:
        with np.errstate(over="ignore"):
            plain = np.log1p(gains * fades)
        over = np.isinf(plain)
        assert over.any() and not over.all()
        assert np.array_equal(costs[~over], plain[~over])
        assert np.array_equal(costs[over], np.log(gains[over]) + np.log(fades[over]))
        for g, f, cost in list(zip(gains[over], fades[over], costs[over]))[:20]:
            # log1p(g*f) = log g + log f + log1p(1/(g*f)), and 1/(g*f) < 1e-308.
            assert cost == pytest.approx(math.log(g) + math.log(f), rel=4e-16)

    n = 100
    # Half the rows hold a gain so large that g*f overflows for some fades.
    gains = np.full((n, n), 2.0)
    gains[::2] = top
    check(generate_cost_matrix(ConstantGain(1.0), n, _rng(11), gain_matrix=gains),
          gains, _rng(11).exponential(size=(n, n)))
    # A constant law draws its gains without randomness.
    check(sample_cost(ConstantGain(top), _rng(12), size=n * n),
          np.full(n * n, top), _rng(12).exponential(size=n * n))


def test_read_only_gain_matrix_is_left_as_it_was() -> None:
    gains = ParetoGain(3.0).sample(_rng(5), size=(50, 50))
    gains.flags.writeable = False
    before = gains.copy()
    generate_cost_matrix(ParetoGain(3.0), 50, _rng(6), gain_matrix=gains)
    assert np.array_equal(gains, before)
    assert not gains.flags.writeable


def test_cost_matrix_draw_holds_two_matrices_at_most() -> None:
    n = 1000
    rng = _rng(11)
    tracemalloc.start()
    try:
        generate_cost_matrix(ExponentialGain(), n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The gains and the one buffer that fades, products and costs share.
    assert peak <= 2 * 8 * n * n + 2**20


def test_pareto_cost_matrix_draw_holds_two_matrices_at_most() -> None:
    n = 1000
    rng = _rng(12)
    tracemalloc.start()
    try:
        generate_cost_matrix(ParetoGain(3.0), n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Uniforms and gains while the gains are drawn, then as for any law.
    assert peak <= 2 * 8 * n * n + 2**20


def test_matrix_entries_are_uncorrelated_across_positions() -> None:
    replicates = np.stack(
        [
            generate_cost_matrix(ExponentialGain(), 3, _rng(1000 + k)).ravel()
            for k in range(2000)
        ]
    )
    corr = np.corrcoef(replicates, rowvar=False)
    off_diagonal = corr[~np.eye(9, dtype=bool)]
    assert float(np.max(np.abs(off_diagonal))) < 0.09
