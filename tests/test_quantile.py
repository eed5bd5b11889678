"""Quantile inversion accuracy, round trips, and asymptotic forms."""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np
import pytest
from oracles import lockstep_bisection

from logassign import (
    BRACKET_WIDTH,
    BracketError,
    ConstantGain,
    DensityGain,
    ExponentialGain,
    GainModel,
    ParetoGain,
    Prediction,
    QuadratureError,
    UniformGain,
    asymptotic_prediction,
    asymptotic_quantile,
    parse_model_spec,
    predicted_max,
    prediction_table,
    quantile,
    slow_variation_ratio,
    tail_probabilities,
    tail_probability,
    tail_quantile,
    tail_quantiles,
)

BUILTINS = (ConstantGain(1.0), ExponentialGain(), ParetoGain(2.0), UniformGain())


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_constant_gain_quantile_matches_closed_form(c: float) -> None:
    model = ConstantGain(c)
    for k in range(1, 9):
        p = 10.0**-k
        expected = math.log1p(c * abs(math.log(p)))
        assert abs(tail_quantile(model, p).r - expected) <= 1e-9


def test_quantile_beyond_r_512_matches_closed_form() -> None:
    # The search doubles r from 1, so this root, past 512, once led it to
    # r = 1024, where e^r - 1 overflows.
    result = tail_quantile(ConstantGain(1e223), 1.0 / 16.0)
    assert result.r > 512.0
    assert abs(result.r - math.log1p(1e223 * math.log(16.0))) <= 1e-10


def test_quantile_past_the_double_range_is_a_bracket_error() -> None:
    # The root is log1p(1e308 * log 16), beyond log(DBL_MAX) = 709.78.
    with pytest.raises(BracketError, match="overflows a double"):
        tail_quantile(ConstantGain(1e308), 1.0 / 16.0)


def test_tail_probability_takes_thresholds_up_to_the_double_range() -> None:
    r_max = math.log(sys.float_info.max)
    expected = math.exp(-math.expm1(r_max) / 1e308)
    assert tail_probability(ConstantGain(1e308), r_max) == pytest.approx(expected, rel=1e-13)
    for bad in (math.nextafter(r_max, math.inf), 710.0, math.inf):
        with pytest.raises(ValueError, match="overflows a double"):
            tail_probability(ExponentialGain(), bad)


def test_constant_unit_gain_at_p_exp_minus_one() -> None:
    result = tail_quantile(ConstantGain(1.0), math.exp(-1.0))
    assert result.r == pytest.approx(math.log(2.0), abs=1e-9)


def test_quantile_result_certifies_its_own_convergence() -> None:
    for model in BUILTINS:
        for p in (0.3, 1e-2, 1e-6):
            result = tail_quantile(model, p)
            low, high = result.bracket
            assert low <= result.r <= high
            assert high - low <= BRACKET_WIDTH
            assert abs(result.residual) <= 1e-8
            assert result.p == p
            assert result.iterations > 0


def test_quantile_round_trips_through_tail_probability() -> None:
    for model in BUILTINS:
        for k in range(1, 7):
            p = 10.0**-k
            back = tail_probability(model, tail_quantile(model, p).r)
            assert back == pytest.approx(p, rel=1e-7)


def test_quantile_grows_as_p_shrinks() -> None:
    for model in BUILTINS:
        levels = [10.0**-k for k in range(1, 9)]
        values = [tail_quantile(model, p).r for p in levels]
        assert all(b > a for a, b in zip(values, values[1:]))


class CountingGain(GainModel):
    """A built-in law that counts its transform evaluations."""

    def __init__(self, law: GainModel):
        self.law = law
        self.spec = law.spec
        self.calls = 0

    def log_laplace(self, rho: float) -> float:
        self.calls += 1
        return self.law.log_laplace(rho)


# Unsorted, with repeats, and on both sides of Pareto's alpha + 700 cut.
GRID = (1e-4, 0.3, 1.0 / 16, 1e-8, 1e-4, 1.0 / 221, 0.3, 1e-12)


# Transform evaluations of one tail_quantiles call on GRID: each distinct r
# once, as many as a memo of every point gives.
GRID_EVALUATIONS = {"constant:1.0": 212, "exp": 217, "pareto:2.0": 229, "uniform": 212}


@pytest.mark.parametrize("law", BUILTINS, ids=lambda law: law.spec)
def test_tail_quantiles_equal_separate_solves_with_fewer_transforms(law) -> None:
    separate = CountingGain(law)
    expected = [tail_quantile(separate, p) for p in GRID]
    shared = CountingGain(law)
    results = tail_quantiles(shared, GRID)
    assert len(results) == len(GRID)
    for got, want in zip(results, expected):
        assert got.p == want.p
        assert got.r == want.r
        assert got.bracket == want.bracket
        assert got.residual == want.residual
        assert got.iterations == want.iterations
    assert shared.calls < separate.calls
    assert shared.calls == GRID_EVALUATIONS[law.spec]
    # Each call evaluates its points afresh.
    first = shared.calls
    assert tail_quantiles(shared, GRID) == results
    assert shared.calls == 2 * first


# SHA-256 of the repr of every (p, r, bracket, residual, iterations) at the
# levels 1/n of predict-grid's seed-0 grid and of n = 2..299.  Residuals
# carry the transform's last bit at every point of the final step, so this
# also pins how the transform is evaluated in bulk.
PINNED_QUANTILES = {
    "exp": "754cba0c69868c65cfdd3751f21a08e5dc078c86ecbc572b2a55454182c3b8d2",
    "uniform": "430d22f616960d38890e3026551230c65800ff145033b76a03817094e459dd03",
    "pareto:1.5": "4dd8f7be7e6caa9c276f6712b445e595729e782fdd30b0288d9474c9c483ff10",
    "pareto:3": "41ca792632999ddb15376e6c5b685a3da04914b0df0628ac410ec06b5e8a4c52",
    "constant:2.5": "94389126440e8b240fb9ee323213ef651532dcf163da43be0b3cd209158ffdca",
}


@pytest.mark.parametrize("spec", PINNED_QUANTILES)
def test_quantile_results_keep_every_bit(spec: str) -> None:
    levels = [1.0 / n for n in [*range(16, 10_000, 200), 10_000, *range(2, 300)]]
    digest = hashlib.sha256()
    for q in tail_quantiles(parse_model_spec(spec), levels):
        digest.update(repr((q.p, q.r, q.bracket, q.residual, q.iterations)).encode())
    assert digest.hexdigest() == PINNED_QUANTILES[spec]


def _solves(monkeypatch, model, levels, calls=None):
    """Results and transform calls of ``tail_quantiles`` and of plain lockstep bisection.

    Each call's size is appended to ``calls``, if given, while it is counted.
    """
    calls = [] if calls is None else calls
    original = type(model)._log_laplace_values

    def counted(self, rho):
        calls.append(rho.size)
        return original(self, rho)

    monkeypatch.setattr(type(model), "_log_laplace_values", counted)
    results = tail_quantiles(model, levels)
    certified = len(calls)
    calls.clear()
    reference = lockstep_bisection(model, levels)
    monkeypatch.setattr(type(model), "_log_laplace_values", original)
    return results, certified, reference, len(calls)


def _level_sets(model) -> dict[str, list[float]]:
    # Log-uniform levels stop where the quantile would pass r = 709.
    lowest = max(-700.0, model.log_laplace(math.expm1(709.0)))
    return {
        "1/n": [1.0 / n for n in range(2, 5001)],
        "log-uniform": np.exp(np.random.default_rng(5).uniform(lowest, 0.0, 2000)).tolist(),
        "repeated": [0.3, 1e-4, 0.3, 1e-4, 1e-4, 1.0 / 3.0, 0.3],
        "near 1": [1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 1e-6, 0.999],
    }


@pytest.mark.parametrize("spec", ["constant:1e-12", "constant:1", "constant:1e223", "exp",
                                  "uniform", "pareto:1.06", "pareto:1.5", "pareto:3",
                                  "pareto:106"])
def test_certified_bisection_equals_plain_bisection(spec: str, monkeypatch) -> None:
    model = parse_model_spec(spec)
    for name, levels in _level_sets(model).items():
        results, calls, reference, reference_calls = _solves(monkeypatch, model, levels)
        # Every field: the same mids, brackets, residuals and iterations.
        assert results == reference, name
        assert calls <= reference_calls + 2, name


def _grid(seed: int) -> list[float]:
    """The levels 1/n of predict-grid's grid at ``seed``."""
    return [1.0 / n for n in [*range(16 + seed, 10_000, 200), 10_000]]


# Transform calls of one tail_quantiles call on predict-grid's grids at
# seeds 0 and 27, and the bisection rounds among them; plain bisection
# makes 39 calls for uniform and 45 for pareto:1.5.
GRID_CALLS = {("uniform", 0): 8, ("uniform", 27): 8,
              ("pareto:1.5", 0): 11, ("pareto:1.5", 27): 11}
GRID_ROUNDS = {"uniform": 2, "pareto:1.5": 3}


@pytest.mark.parametrize("spec,seed", GRID_CALLS)
def test_certified_bisection_skips_most_transform_calls(spec: str, seed: int,
                                                        monkeypatch) -> None:
    model = parse_model_spec(spec)
    before_bisection = []
    certified_points = quantile._certified_points

    def marked(*args):
        points = certified_points(*args)
        before_bisection.append(len(calls))
        return points

    # _solves counts the calls into this list; its length when the
    # certified points are found splits them.
    calls = []
    monkeypatch.setattr(quantile, "_certified_points", marked)
    results, count, reference, reference_calls = _solves(monkeypatch, model, _grid(seed),
                                                         calls)
    assert results == reference
    assert reference_calls == {"uniform": 39, "pareto:1.5": 45}[spec]
    assert count == GRID_CALLS[spec, seed]
    # Each round evaluates every dyadic level's next mid in one call.
    (calls_before_bisection,) = before_bisection
    assert count - calls_before_bisection == GRID_ROUNDS[spec]


class Doubled(UniformGain):
    """A built-in law with its transform overridden: it states no error bound."""

    def _log_laplace_batch(self, rho):
        return super()._log_laplace_batch(2.0 * rho)


class Scaled(ParetoGain):
    """A built-in law with its scalar transform overridden."""

    def log_laplace(self, rho: float) -> float:
        return 1.5 * super().log_laplace(rho)


@pytest.mark.parametrize("model,law", [(Doubled(), UniformGain()), (Scaled(2.5), ParetoGain(2.5))],
                         ids=["Doubled", "Scaled"])
def test_a_subclass_that_overrides_the_transform_evaluates_every_mid(model, law,
                                                                     monkeypatch) -> None:
    # It states no bound, so no mid is decided and no level jumps past one.
    for levels in ([1.0 / n for n in range(2, 300)], _grid(0)):
        results, calls, reference, reference_calls = _solves(monkeypatch, model, levels)
        assert results == reference
        assert calls == reference_calls
        # The override is what is solved, not the built-in law.
        assert all(ours.r != theirs.r
                   for ours, theirs in zip(results, tail_quantiles(law, levels)))


def test_levels_on_both_sides_of_r_512_solve_together_as_plain_bisection(monkeypatch) -> None:
    # Roots near 506.6 and 508.9 lie in the dyadic bracket [256, 512], whose
    # levels jump; those near 513.1 and 515.7 lie in [512, log(DBL_MAX)],
    # whose levels step one mid at a time, in the same rounds.
    levels = [0.999, 0.99, 0.5, 1e-4]
    results, calls, reference, reference_calls = _solves(
        monkeypatch, parse_model_spec("constant:1e223"), levels)
    assert [result.bracket[1] <= 512.0 for result in results] == [True, True, False, False]
    assert results == reference
    assert calls < reference_calls


class BoundedExponential(GainModel):
    """Exponential's transform, with a stated bound but no closed-form quantile law."""

    spec = "bounded-exp"

    def _log_laplace_batch(self, rho):
        return ExponentialGain()._log_laplace_batch(rho)

    def _log_laplace_error(self) -> float:
        return 1e-12


def test_a_stated_bound_without_a_quantile_law_doubles_one_rung_a_call(monkeypatch) -> None:
    model = BoundedExponential()
    reference = lockstep_bisection(model, _grid(0))
    sizes = []
    original = BoundedExponential._log_laplace_values
    monkeypatch.setattr(BoundedExponential, "_log_laplace_values",
                        lambda self, rho: sizes.append(rho.size) or original(self, rho))
    results = tail_quantiles(model, _grid(0))
    assert results == reference
    assert results == tail_quantiles(ExponentialGain(), _grid(0))
    # With no guess to batch up to, its ladder evaluates r = 1, 2 and 4 one
    # a call; then its certified points skip most mids, as exp's do.
    assert sizes[:4] == [1, 1, 1, len(_grid(0))]
    assert len(sizes) < 20


@pytest.mark.parametrize("law", [*BUILTINS, ParetoGain(1.5), Scaled(2.5)],
                         ids=lambda law: f"{type(law).__name__}:{law.spec}")
def test_tail_probabilities_equal_the_scalar_formula_in_one_call(law, monkeypatch) -> None:
    grid = [0.0, 5e-324, 1e-20, 0.5, 1.0, 2.0, 3.0, 7.0, 50.0, 709.0,
            math.log(sys.float_info.max)]
    expected = [math.exp(law.log_laplace(math.expm1(r))) for r in grid]
    calls = []
    original = type(law)._log_laplace_values
    monkeypatch.setattr(type(law), "_log_laplace_values",
                        lambda self, rho: calls.append(rho.size) or original(self, rho))
    assert tail_probabilities(law, grid) == expected
    assert calls == [len(grid) - 1]  # r = 0 needs no call
    assert [tail_probability(law, r) for r in grid] == expected
    # A run of equal thresholds, here once r = 0 is set aside, is one point.
    calls.clear()
    repeated = [2.0, 2.0, 0.0, 2.0, 7.0]
    assert tail_probabilities(law, repeated) == [expected[grid.index(r)] for r in repeated]
    assert calls == [2]


def test_tail_probabilities_check_every_threshold_in_order_before_any_call() -> None:
    model = CountingGain(ExponentialGain())
    for grid, message in [((1.0, math.nan, 710.0), "nonnegative"), ((1.0, -1.0), "nonnegative"),
                          ((1.0, 710.0, -1.0), "overflows a double")]:
        with pytest.raises(ValueError, match=message):
            tail_probabilities(model, grid)
    assert model.calls == 0


def test_levels_around_the_top_of_the_dyadic_ladder_solve_as_plain_bisection() -> None:
    # A constant law's closed-form guess is its exact root, so near r = 512
    # the first call of the ladder reaches log(DBL_MAX), one rung past where
    # doubling one rung a call stops.
    c = 1e223
    levels = [math.exp(-math.expm1(r) / c)
              for r in (500.0, 510.0, 511.0, 511.9, 512.0, 512.1, 513.0, 520.0)]
    assert tail_quantiles(ConstantGain(c), levels) == lockstep_bisection(ConstantGain(c), levels)
    for p in levels:
        assert tail_quantiles(ConstantGain(c), [p]) == lockstep_bisection(ConstantGain(c), [p])


# Levels from 0.5 down to 1e-300, and the outcome of solving each alone and
# all together, as the certified solver gave them before its ladder was
# batched: SHA-256 of one line per solve, the results' fields or the
# exception's class and message.  Past alpha = 106 Pareto's far-tail
# quadrature overflows, so a batched ladder must raise only where doubling
# one rung a call raised.
LADDER_LEVELS = [0.5, *(10.0**-k for k in (1, 2, 3, 5, 10, 20, 50, 100, 150, 200, 250, 300))]
LADDER_OUTCOMES = {
    "pareto:106.5": "dee81d700d8a50904e31c2c836327034750e1e84363bdb2270f907f4ba5d0a29",
    "pareto:150": "552fd86618a585e412eb356943fef2a4b49c59d3e0687d285b393c05a0fd8d07",
    "pareto:1000": "84747b9c89fbb201aed1b7a630082c3c0839ad27affc8ce7e63929d1960a9cab",
}


def _outcome(model, levels) -> str:
    try:
        return repr([(q.p, q.r, q.bracket, q.residual, q.iterations)
                     for q in tail_quantiles(model, levels)])
    except (BracketError, QuadratureError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("spec", LADDER_OUTCOMES)
def test_a_batched_ladder_keeps_each_outcome_past_the_far_tail_limit(spec: str) -> None:
    model = parse_model_spec(spec)
    lines = [_outcome(model, [p]) for p in LADDER_LEVELS] + [_outcome(model, LADDER_LEVELS)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LADDER_OUTCOMES[spec]


def test_a_law_with_no_stated_bound_evaluates_exactly_the_points_of_plain_bisection(
        monkeypatch) -> None:
    # Its ladder evaluates one rung a call, and every mid, in the order of
    # the oracle's lockstep bisection.
    model = Doubled()
    assert model._log_laplace_error() is None
    calls = []
    original = UniformGain._log_laplace_values
    monkeypatch.setattr(Doubled, "_log_laplace_values",
                        lambda self, rho: calls.append(rho.copy()) or original(self, rho))
    results = tail_quantiles(model, GRID)
    ours, calls[:] = calls[:], []
    assert results == lockstep_bisection(model, GRID)
    assert len(ours) == len(calls)
    assert all(np.array_equal(a, b) for a, b in zip(ours, calls))


@pytest.mark.parametrize("sizes,p", [([2, 10**12, 10**10], "1e-12"), ([10**10, 10**12], "1e-10")])
def test_the_first_unbracketable_level_in_input_order_is_reported(sizes, p) -> None:
    # Both large sizes have roots past log(DBL_MAX); n = 2 has one below it.
    with pytest.raises(BracketError, match=f"no bracket for p = {p}:"):
        prediction_table(ConstantGain(1e307), sizes)


def test_tail_quantiles_check_every_level_before_solving() -> None:
    model = CountingGain(ConstantGain(1.0))
    with pytest.raises(ValueError):
        tail_quantiles(model, (0.5, 1e-3, 1.0))
    assert model.calls == 0
    assert tail_quantiles(model, ()) == []


def test_level_validation() -> None:
    model = ConstantGain(1.0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            tail_quantile(model, bad)
    with pytest.raises(ValueError):
        tail_probability(model, -0.1)


def test_uniform_quantile_tracks_log_level() -> None:
    # Here e^r - 1 equals |log p| up to an iterated-log correction.
    p = 1e-6
    r = tail_quantile(UniformGain(), p).r
    size = abs(math.log(p))
    assert abs(math.expm1(r) - size) <= 2.0 * math.log(size)


def test_predicted_max_scales_the_quantile() -> None:
    model = ConstantGain(1.0)
    assert predicted_max(model, 10) == pytest.approx(
        10.0 * math.log1p(math.log(10.0)), abs=1e-8
    )
    assert predicted_max(model, 10) == pytest.approx(11.947055233, abs=1e-6)
    with pytest.raises(ValueError):
        predicted_max(model, 1)


def test_prediction_table_rows_come_from_one_shared_solve() -> None:
    model = ExponentialGain()
    sizes = (2, 3, 16, 1000)
    table = prediction_table(model, sizes)
    assert Prediction._fields == ("n", "quantile_numeric", "quantile_asymptotic",
                                  "predicted_numeric", "predicted_asymptotic")
    assert [row.n for row in table] == list(sizes)
    for row, quantile in zip(table, tail_quantiles(model, [1.0 / n for n in sizes])):
        assert row.quantile_numeric == quantile.r
        assert row.predicted_numeric == row.n * quantile.r == predicted_max(model, row.n)
    # 1/2 and 1/3 lie above exp(-e), and the growth law needs n >= 3.
    assert math.isnan(table[0].quantile_asymptotic)
    assert math.isnan(table[0].predicted_asymptotic)
    assert math.isnan(table[1].quantile_asymptotic)
    assert table[1].predicted_asymptotic == asymptotic_prediction(model, 3)
    assert table[3].quantile_asymptotic == asymptotic_quantile(model, 1e-3)
    assert table[3].predicted_asymptotic == asymptotic_prediction(model, 1000)


def test_prediction_table_checks_every_size_before_solving() -> None:
    model = CountingGain(ConstantGain(1.0))
    for bad in ((5, 1), (5, 2**53)):
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            prediction_table(model, bad)
    assert model.calls == 0
    # A law with no closed forms still predicts numerically.
    (row,) = prediction_table(model, (16,))
    assert row.predicted_numeric == 16 * tail_quantile(ConstantGain(1.0), 1 / 16).r
    assert math.isnan(row.quantile_asymptotic) and math.isnan(row.predicted_asymptotic)


def test_sizes_that_are_not_whole_numbers_are_rejected_not_truncated() -> None:
    model = CountingGain(ExponentialGain())
    for sizes in ((16.9,), (16, 32.5), ("16",)):
        with pytest.raises(ValueError, match="^size must be a whole number, not "):
            prediction_table(model, sizes)
    assert model.calls == 0
    with pytest.raises(ValueError, match="^size must be a whole number, not 16.9$"):
        asymptotic_prediction(ExponentialGain(), 16.9)
    # Whole numbers of any numeric type stand for their int.
    exp = ExponentialGain()
    assert prediction_table(exp, (16.0, np.int64(32))) == prediction_table(exp, (16, 32))
    assert asymptotic_prediction(exp, np.uint16(16)) == asymptotic_prediction(exp, 16)


def test_asymptotic_quantile_forms() -> None:
    p = 1e-5
    size = abs(math.log(p))
    assert asymptotic_quantile(ConstantGain(2.0), p) == math.log1p(2.0 * size)
    assert asymptotic_quantile(ExponentialGain(), p) == math.log(size * size / 4.0)
    assert asymptotic_quantile(ParetoGain(3.0), p) == size / 2.0
    assert asymptotic_quantile(UniformGain(), p) == math.log(size)


def test_asymptotic_quantile_guards_small_levels_only() -> None:
    for bad in (0.5, 0.07, math.exp(-math.e)):
        with pytest.raises(ValueError):
            asymptotic_quantile(ConstantGain(1.0), bad)
    flat = DensityGain(density=lambda y: 1.0, lower=1.0, upper=2.0)
    with pytest.raises(ValueError):
        asymptotic_quantile(flat, 1e-4)


def test_asymptotic_quantile_converges_to_numeric_one() -> None:
    for model in BUILTINS:
        gaps = []
        for k in (4, 8, 12):
            p = 10.0**-k
            numeric = tail_quantile(model, p).r
            gaps.append(abs(asymptotic_quantile(model, p) - numeric) / numeric)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.2


def test_pareto_slow_variation_spot_value() -> None:
    # (|log p| + log 2) / |log p| at p = 1e-8, about 1.0376.
    ratio = slow_variation_ratio(ParetoGain(2.0), 1e-8, 0.5)
    size = abs(math.log(1e-8))
    assert ratio == pytest.approx((size + math.log(2.0)) / size, abs=0.01)


def test_constant_slow_variation_doubling_band() -> None:
    ratio = slow_variation_ratio(ConstantGain(1.0), 1e-8, 2.0)
    assert 0.95 <= ratio <= 1.0


def test_slow_variation_validation() -> None:
    model = ConstantGain(1.0)
    with pytest.raises(ValueError):
        slow_variation_ratio(model, 0.0, 2.0)
    with pytest.raises(ValueError):
        slow_variation_ratio(model, 0.9, 2.0)
    with pytest.raises(ValueError):
        slow_variation_ratio(model, 0.5, -1.0)
