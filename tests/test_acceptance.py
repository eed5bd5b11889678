"""Acceptance suite: one criterion per test, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here on purpose; loosening one is a behavior
change, not a cleanup.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from logassign import (
    ConstantGain,
    ExperimentConfig,
    ExponentialGain,
    ParetoGain,
    UniformGain,
    assignment_value,
    run_experiment,
    sample_cost,
    slow_variation_ratio,
    solve_max_assignment,
    tail_probability,
    tail_quantile,
)
from logassign.cli import main
from oracles import brute_force_max_assignment


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


@pytest.fixture(scope="module")
def desk_scale_report():
    config = ExperimentConfig(
        model=ExponentialGain(),
        sizes=(10, 20, 50, 100, 200),
        replicates=300,
        mode="annealed",
        master_seed=1,
    )
    return run_experiment(config)


def test_a1_solver_agrees_with_brute_force() -> None:
    start = time.perf_counter()
    rng = _stream(12)
    worst = 0.0
    for n, _ in itertools.product(range(2, 8), range(200)):
        matrix = rng.random((n, n))
        fast = solve_max_assignment(matrix)
        slow = brute_force_max_assignment(matrix)
        worst = max(worst, abs(fast.value - slow.value))
        # The returned permutation must realize the optimum on its own.
        worst = max(
            worst, abs(assignment_value(matrix, fast.permutation) - slow.value)
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(
        "A1 solver equals exhaustive search on 1200 random instances",
        ok,
        f"max gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_a2_deterministic_gain_quantile_is_exact() -> None:
    start = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        model = ConstantGain(c)
        for k in range(1, 9):
            p = 10.0 ** -k
            exact = math.log1p(c * abs(math.log(p)))
            worst = max(worst, abs(tail_quantile(model, p).r - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        "A2 quantile inversion matches the closed form for constant gains",
        ok,
        f"max abs error {worst:.2e}, {elapsed:.2f}s",
    )


def test_a3_sampled_tails_match_the_transform() -> None:
    start = time.perf_counter()
    models = (ConstantGain(1.0), ExponentialGain(), ParetoGain(3.0), UniformGain())
    draws = 1_000_000
    worst = 0.0
    for index, model in enumerate(models):
        costs = sample_cost(model, _stream(600 + index), size=draws)
        for r in (0.5, 1.0, 2.0, 3.0):
            theoretical = tail_probability(model, r)
            spread = math.sqrt(theoretical * (1.0 - theoretical) / draws)
            z = abs(float(np.mean(costs >= r)) - theoretical) / spread
            worst = max(worst, z)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 30.0
    _verdict(
        "A3 million-sample tail frequencies sit within 4 standard errors",
        ok,
        f"max |z| {worst:.2f}, {elapsed:.2f}s",
    )


def test_a4_transform_asymptotics_converge() -> None:
    start = time.perf_counter()
    checks = [
        (ExponentialGain(), 0.01),
        (UniformGain(), 0.01),
        (ParetoGain(2.0), 0.005),
        (ParetoGain(3.0), 0.005),
    ]
    worst = 0.0
    ok = True
    for model, bound in checks:
        exact = model.log_laplace(1e4)
        gap = abs(exact - model.log_laplace_asymptotic(1e4)) / abs(exact)
        worst = max(worst, gap)
        ok = ok and gap <= bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(
        "A4 closed asymptotics track the transform at rho = 1e4",
        ok,
        f"max rel gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_a5_desk_scale_experiment_reproduces_error_pattern(desk_scale_report) -> None:
    rows = {row.n: row for row in desk_scale_report}
    small = rows[10].rel_err_numeric
    large = rows[200].rel_err_numeric
    asym = [row.rel_err_asymptotic for row in desk_scale_report]
    band_small = 0.025 <= small <= 0.07
    trend = large < small
    band_asym = all(0.20 <= value <= 0.40 for value in asym)
    ok = band_small and trend and band_asym
    _verdict(
        "A5 numeric prediction error starts near 4% and falls; "
        "growth-law overshoot stays in [20%, 40%]",
        ok,
        f"n=10 err {small:.4f}, n=200 err {large:.4f}, "
        f"asym range [{min(asym):.3f}, {max(asym):.3f}]",
    )


def test_a6_frozen_gains_resemble_fresh_gains(desk_scale_report) -> None:
    start = time.perf_counter()
    quenched = run_experiment(
        ExperimentConfig(
            model=ExponentialGain(),
            sizes=(100,),
            replicates=300,
            mode="quenched",
            master_seed=1,
        )
    )
    annealed_mean = next(r for r in desk_scale_report if r.n == 100).empirical_mean
    quenched_mean = quenched[0].empirical_mean
    gap = abs(quenched_mean - annealed_mean) / annealed_mean
    elapsed = time.perf_counter() - start
    ok = gap <= 0.05 and elapsed < 120.0
    _verdict(
        "A6 quenched mean optimum at n=100 lands within 5% of annealed",
        ok,
        f"rel gap {gap:.4f}, {elapsed:.1f}s",
    )


def test_a7_quantile_varies_slowly_near_zero() -> None:
    start = time.perf_counter()
    models = (ConstantGain(1.0), ExponentialGain(), ParetoGain(2.0), UniformGain())
    ok = True
    worst = 0.0
    for model in models:
        for scale in (0.5, 2.0):
            gaps = [
                abs(slow_variation_ratio(model, p, scale) - 1.0)
                for p in (1e-4, 1e-6, 1e-8)
            ]
            ok = ok and 0.9 <= slow_variation_ratio(model, 1e-8, scale) <= 1.1
            ok = ok and gaps[0] >= gaps[1] >= gaps[2]
            worst = max(worst, gaps[2])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(
        "A7 rescaling the level barely moves the quantile, and less so deeper in",
        ok,
        f"max |ratio-1| at p=1e-8 is {worst:.3f}, {elapsed:.2f}s",
    )


def test_a8_worker_count_cannot_change_the_output() -> None:
    start = time.perf_counter()
    base = ["simulate", "exp", "--sizes", "10..50:10", "--replicates", "40",
            "--seed", "3"]
    serial = CliRunner().invoke(main, base + ["--jobs", "1"])
    parallel = CliRunner().invoke(main, base + ["--jobs", "8"])
    elapsed = time.perf_counter() - start
    ok = (
        serial.exit_code == 0
        and parallel.exit_code == 0
        and serial.output == parallel.output
        and elapsed < 60.0
    )
    _verdict(
        "A8 simulate --jobs 1 and --jobs 8 emit byte-identical CSV",
        ok,
        f"{len(serial.output)} bytes each, {elapsed:.1f}s",
    )
