"""Solver behavior on crafted instances plus randomized oracle checks."""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from logassign import (
    Assignment,
    ConstantGain,
    ExponentialGain,
    ParetoGain,
    UniformGain,
    assignment_value,
    generate_cost_matrix,
    replicate_stream,
    solve_max_assignment,
)
from logassign import matching
from logassign.matching import as_cost_matrix
from oracles import brute_force_max_assignment, lp_duals

# Hand-enumerated: all six permutations of this matrix score
# 9, 2, 5, 5, 0, 7, so the identity wins uniquely.
DEMO = [[1.0, 2.0, 0.0], [0.0, 5.0, 1.0], [2.0, 0.0, 3.0]]


def test_assignment_value_on_identity() -> None:
    assert assignment_value(DEMO, (0, 1, 2)) == 9.0


def test_assignment_value_rejects_non_integer_entries() -> None:
    # int() would truncate these to the permutation (0, 1) and score 5.0.
    with pytest.raises(ValueError, match="0.7"):
        assignment_value([[1.0, 2.0], [3.0, 4.0]], [0.7, 1.2])
    with pytest.raises(ValueError, match="'1'"):
        assignment_value(DEMO, (0, "1", 2))


def test_assignment_value_takes_numpy_integer_permutations() -> None:
    for dtype in (np.int64, np.int32, np.intp):
        assert assignment_value(DEMO, np.array([0, 1, 2], dtype=dtype)) == 9.0
    _, columns = linear_sum_assignment(np.asarray(DEMO), maximize=True)
    assert assignment_value(DEMO, columns) == 9.0


def test_assignment_value_rejects_non_permutations() -> None:
    for permutation in ((0, 1, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match=r"each column 0\.\.2 exactly once"):
            assignment_value(DEMO, permutation)


def test_brute_force_demo_matrix() -> None:
    result = brute_force_max_assignment(DEMO)
    assert result == Assignment(permutation=(0, 1, 2), value=9.0)


def test_solver_demo_matrix() -> None:
    result = solve_max_assignment(DEMO)
    assert result.value == pytest.approx(9.0, abs=1e-12)
    assert result.permutation == (0, 1, 2)


def test_anti_diagonal_two_by_two() -> None:
    result = brute_force_max_assignment([[0.0, 1.0], [1.0, 0.0]])
    assert result.value == 2.0
    assert result.permutation == (1, 0)
    assert solve_max_assignment([[0.0, 1.0], [1.0, 0.0]]).value == pytest.approx(
        2.0, abs=1e-12
    )


def test_single_entry_matrix() -> None:
    result = solve_max_assignment([[5.0]])
    assert result.permutation == (0,)
    assert result.value == 5.0


def test_solver_matches_brute_force_on_random_instances() -> None:
    rng = np.random.default_rng(2024)
    for n in range(2, 8):
        for _ in range(40):
            matrix = rng.normal(scale=4.0, size=(n, n))
            fast = solve_max_assignment(matrix)
            slow = brute_force_max_assignment(matrix)
            assert abs(fast.value - slow.value) <= 1e-12


def test_solver_matches_brute_force_on_tied_instances() -> None:
    # Small integer entries make many optima tie; the solver may break those
    # ties however it likes, so only the value is compared.
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        for _ in range(10):
            matrix = rng.integers(0, 3, size=(n, n)).astype(float)
            fast = solve_max_assignment(matrix)
            assert sorted(fast.permutation) == list(range(n))
            assert fast.value == brute_force_max_assignment(matrix).value
        flat = solve_max_assignment(np.ones((n, n)))
        assert sorted(flat.permutation) == list(range(n))
        assert flat.value == n


# n * Var(minimum) of the Exp(1) assignment tends to 4 * (zeta(2) - zeta(3)).
_EXP_MIN_LIMITING_N_VAR = 4.0 * (math.pi**2 / 6.0 - 1.2020569031595942)


@pytest.mark.parametrize(
    "n, replicates",
    [(200, 100), pytest.param(1000, 30, marks=pytest.mark.slow)],
)
def test_exponential_costs_match_the_exact_mean_minimum(n, replicates) -> None:
    # For i.i.d. Exp(1) costs the expected minimum assignment is exactly
    # sum_{k<=n} 1/k^2 (Linusson & Waestlund 2004; Nair, Prabhakar & Sharma
    # 2005), an oracle far past the brute-force limit.
    rng = np.random.default_rng(0)
    minima = [
        -solve_max_assignment(-rng.exponential(size=(n, n))).value
        for _ in range(replicates)
    ]
    exact = sum(1.0 / k**2 for k in range(1, n + 1))
    sigma = math.sqrt(_EXP_MIN_LIMITING_N_VAR / n / replicates)
    assert abs(float(np.mean(minima)) - exact) <= 4.0 * sigma


def test_row_shift_moves_value_by_exactly_that_amount() -> None:
    rng = np.random.default_rng(7)
    for _ in range(25):
        matrix = rng.random((6, 6)) * 10.0
        base = solve_max_assignment(matrix).value
        shifted = matrix.copy()
        shifted[2] += 3.25
        assert solve_max_assignment(shifted).value == pytest.approx(
            base + 3.25, abs=1e-12
        )


def test_additive_rank_structure_is_permutation_free() -> None:
    rng = np.random.default_rng(11)
    a = rng.random(9)
    b = rng.random(9)
    matrix = a[:, None] + b[None, :]
    assert solve_max_assignment(matrix).value == pytest.approx(
        a.sum() + b.sum(), abs=1e-9
    )


def test_returned_permutation_is_always_a_bijection() -> None:
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 13, 40):
        matrix = rng.normal(size=(n, n))
        perm = solve_max_assignment(matrix).permutation
        assert sorted(perm) == list(range(n))


def test_value_consistent_with_recomputation() -> None:
    rng = np.random.default_rng(5)
    for _ in range(20):
        matrix = rng.random((12, 12))
        result = solve_max_assignment(matrix)
        assert result.value == assignment_value(matrix, result.permutation)


def _row_order_sum(matrix, permutation) -> float:
    """The reference: one float addition per row, in row order."""
    total = 0.0
    for i, j in enumerate(permutation):
        total += float(matrix[i][j])
    return total


@pytest.mark.parametrize("n", [1, 2, 10, 200])
def test_values_are_summed_in_row_order_bit_for_bit(n: int) -> None:
    rng = np.random.default_rng(n)
    matrix = generate_cost_matrix(ParetoGain(1.5), n, rng)
    result = solve_max_assignment(matrix)
    assert result.value.hex() == _row_order_sum(matrix, result.permutation).hex()
    shuffled = rng.permutation(n)
    assert assignment_value(matrix, shuffled).hex() == _row_order_sum(matrix, shuffled).hex()


def test_values_are_summed_neither_exactly_nor_pairwise() -> None:
    # In row order 1e16 absorbs each 1.0 and the sum is 0.0; fsum gives 6.0
    # and numpy's pairwise sum 4.0.
    diagonal = [1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16]
    assert math.fsum(diagonal) == 6.0 and np.sum(diagonal) == 4.0
    assert assignment_value(np.diag(diagonal), range(8)) == 0.0 == _row_order_sum(
        np.diag(diagonal), range(8))


def test_repeat_solves_return_identical_floats() -> None:
    rng = np.random.default_rng(17)
    matrix = rng.random((15, 15))
    assert solve_max_assignment(matrix) == solve_max_assignment(matrix)


def test_all_equal_matrix_breaks_ties_toward_identity() -> None:
    assert brute_force_max_assignment(np.ones((4, 4))).permutation == (0, 1, 2, 3)


def test_invalid_matrices_are_rejected() -> None:
    with pytest.raises(ValueError):
        solve_max_assignment(np.empty((0, 0)))
    with pytest.raises(ValueError):
        solve_max_assignment([[1.0, 2.0]])
    with pytest.raises(ValueError):
        solve_max_assignment([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_max_assignment([[np.inf, 0.0], [0.0, 1.0]])


def test_an_overflowing_total_is_a_value_error_without_a_warning() -> None:
    matrix = [[1e308, 0.0], [0.0, 1e308]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflows a double: .* at row 1$"):
            solve_max_assignment(matrix)
        with pytest.raises(ValueError, match="overflows a double"):
            assignment_value(matrix, (0, 1))
        assert assignment_value(matrix, (1, 0)) == 0.0
    assert caught == []


@pytest.mark.parametrize("matrix, message", [
    ([[1.5e308, -1e308], [0.0, 0.0]], "row 0 spreads from -1e+308 to 1.5e+308"),
    ([[0.0, 0.0], [-1e308, 1e308]], "row 1 spreads from -1e+308 to 1e+308"),
    ([[1e308, -1e308], [-1e308, 1e308]], "row 0 spreads from -1e+308 to 1e+308"),
], ids=["first-row", "second-row", "both-rows"])
def test_a_row_spread_beyond_a_double_is_rejected_before_solving(
    monkeypatch, matrix, message
) -> None:
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", unreachable)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape(
                f"cost matrix {message}, a difference that overflows a double")):
            solve_max_assignment(matrix)
    assert caught == []


def test_only_the_spread_within_a_row_must_fit_a_double() -> None:
    # The matrix spans 2e308, but each row is flat, so every reduced cost is 0.
    result = solve_max_assignment([[1e308, 1e308], [-1e308, -1e308]])
    assert result.value == 0.0
    assert sorted(result.permutation) == [0, 1]


def test_the_solver_holds_one_working_copy_and_never_writes_its_input() -> None:
    n = 300
    matrix = generate_cost_matrix(ExponentialGain(), n, replicate_stream(4, n, 0))
    solve_max_assignment(matrix)  # imports scipy.optimize outside the trace
    tracemalloc.start()
    try:
        solve_max_assignment(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One n x n buffer of doubles, the reduced costs, plus numpy's fixed
    # 64 KiB ufunc buffer and O(n) vectors.
    assert peak < 1.25 * n * n * 8
    frozen = matrix.copy()
    frozen.flags.writeable = False
    for given in (matrix, frozen):
        before = given.tobytes()
        solve_max_assignment(given)
        assert given.tobytes() == before


def test_solver_checks_its_input_once(monkeypatch) -> None:
    checked = []

    def counting(matrix):
        checked.append(1)
        return as_cost_matrix(matrix)

    monkeypatch.setattr(matching, "as_cost_matrix", counting)
    result = solve_max_assignment(DEMO)
    assert checked == [1]
    assert result.value == assignment_value(DEMO, result.permutation)


def test_brute_force_rejects_large_instances() -> None:
    with pytest.raises(ValueError):
        brute_force_max_assignment(np.zeros((11, 11)))


def _assert_certified_optimal(costs: np.ndarray) -> None:
    # By weak duality every assignment scores at most sum u + sum v for a
    # feasible (u, v), so duals that are feasible and match the solver's
    # value certify that value as the optimum.
    u, v = lp_duals(costs)
    value = solve_max_assignment(costs).value
    assert (costs - u[:, None] - v[None, :]).max() <= 1e-12 * np.abs(costs).max()
    assert abs(u.sum() + v.sum() - value) <= 1e-12 * abs(value)


_LP_LAWS = (ConstantGain(1.0), ExponentialGain(), ParetoGain(3.0), UniformGain(),
            ParetoGain(1.05))


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("model", _LP_LAWS, ids=lambda model: model.spec)
def test_lp_duals_certify_the_solver_on_every_law(model, n) -> None:
    _assert_certified_optimal(generate_cost_matrix(model, n, replicate_stream(2, n, 0)))


@pytest.mark.parametrize(
    "model, n",
    [pytest.param(ParetoGain(1.05), 150, marks=pytest.mark.slow),
     pytest.param(ExponentialGain(), 200, marks=pytest.mark.slow)],
    ids=["pareto:1.05-150", "exp-200"],
)
def test_lp_duals_certify_the_solver_on_larger_instances(model, n) -> None:
    _assert_certified_optimal(generate_cost_matrix(model, n, replicate_stream(2, n, 0)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [50, 300])
@pytest.mark.parametrize("model", _LP_LAWS + (ParetoGain(1.5),), ids=lambda model: model.spec)
def test_the_reduced_solve_keeps_the_maximizing_permutation(model, n, seed) -> None:
    matrix = generate_cost_matrix(model, n, replicate_stream(seed, n, 0))
    result = solve_max_assignment(matrix)
    _, columns = linear_sum_assignment(matrix, maximize=True)
    assert result.permutation == tuple(columns.tolist())
    assert result.value.hex() == assignment_value(matrix, result.permutation).hex()


def _offset(rng, n=60):
    # Row and column offsets move every assignment by the same total, so the
    # reduction removes them and only the unit-scale costs decide.
    return (rng.random((n, n)) + rng.uniform(-1e6, 1e6, size=(n, 1))
            + rng.uniform(-1e6, 1e6, size=(1, n)))


def _additive(rng, n=80):
    # Every permutation scores sum(a) + sum(b): the reduced matrix is all
    # rounding error.
    return rng.normal(scale=10.0, size=(n, 1)) + rng.normal(scale=10.0, size=(1, n))


def test_row_and_column_offsets_keep_the_maximizing_permutation() -> None:
    matrix = _offset(np.random.default_rng(43))
    _, columns = linear_sum_assignment(matrix, maximize=True)
    assert solve_max_assignment(matrix).permutation == tuple(columns.tolist())


@pytest.mark.parametrize("n", range(1, 9))
def test_matrices_the_reduction_flattens_match_brute_force(n) -> None:
    rng = np.random.default_rng(n)
    additive = _additive(rng, n)
    assert solve_max_assignment(additive).value == pytest.approx(
        brute_force_max_assignment(additive).value, rel=1e-12, abs=1e-12)
    equal = np.full((n, n), -3.75)
    assert (solve_max_assignment(equal).value == brute_force_max_assignment(equal).value
            == -3.75 * n)


_CRAFTED = {
    "offsets": _offset,
    "additive": _additive,
    "all-equal": lambda rng: np.full((40, 40), -3.75),
    "integer": lambda rng: rng.integers(0, 1000, size=(60, 60)).astype(float),
    # Costs from {0, 1, 2}: many optima tie.
    "tied": lambda rng: rng.integers(0, 3, size=(50, 50)).astype(float),
    # Near degenerate: noise of 1e-12 decides the optimum of a rank-one matrix.
    "rank-one": lambda rng: (np.outer(rng.random(100), rng.random(100))
                             + 1e-12 * rng.random((100, 100))),
}


@pytest.mark.parametrize("kind", _CRAFTED)
def test_lp_duals_certify_the_solver_on_crafted_instances(kind) -> None:
    _assert_certified_optimal(_CRAFTED[kind](np.random.default_rng(12)))
