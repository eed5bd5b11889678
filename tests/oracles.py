"""Reference implementations that the production code is checked against.

The brute-force enumerator checks small instances permutation by
permutation; the LP duals certify larger ones by weak duality.  The
lockstep bisection is the quantile solver that evaluates every midpoint,
the reference for the certified one in ``logassign.quantile``.  The CSV
table writer is the csv module's, the reference for ``table_text``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from logassign.experiment import real_text
from logassign.matching import Assignment, as_cost_matrix
from logassign.quantile import BRACKET_WIDTH, BracketError, QuantileResult

_R_MAX = math.log(sys.float_info.max)

MAX_BRUTE_FORCE_SIZE = 10


def brute_force_max_assignment(matrix) -> Assignment:
    """Maximize by enumerating all n! permutations (n <= 10 only).

    Ties are broken toward the lexicographically smallest permutation,
    which makes the result deterministic even on crafted inputs.
    """
    m = as_cost_matrix(matrix)
    n = m.shape[0]
    if n > MAX_BRUTE_FORCE_SIZE:
        raise ValueError(
            f"brute force is limited to n <= {MAX_BRUTE_FORCE_SIZE}, got n = {n}"
        )
    rows = m.tolist()
    best_perm: tuple[int, ...] | None = None
    best_value = -math.inf
    # itertools.permutations yields in lexicographic order, so keeping only
    # strict improvements realizes the tie-break.
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += rows[i][j]
        if total > best_value:
            best_value = total
            best_perm = perm
    assert best_perm is not None
    return Assignment(permutation=best_perm, value=best_value)


def lp_duals(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal duals (u, v) of the assignment LP, solved by HiGHS.

    The dual of the max-assignment LP is: minimize sum u + sum v subject to
    u_i + v_j >= c_ij.  HiGHS shares no code with linear_sum_assignment.
    """
    n = costs.shape[0]
    cells = np.arange(n * n)
    rows, columns = np.divmod(cells, n)
    # Row i*n + j of the constraints reads -(u_i + v_j) <= -c_ij.
    constraints = sparse.csr_matrix(
        (np.full(2 * n * n, -1.0), (np.tile(cells, 2), np.concatenate([rows, n + columns]))),
        shape=(n * n, 2 * n),
    )
    result = linprog(
        np.ones(2 * n), A_ub=constraints, b_ub=-costs.ravel(), bounds=(None, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0, result.message
    return result.x[:n], result.x[n:]


def lockstep_bisection(model, levels) -> list[QuantileResult]:
    """``tail_quantiles`` as plain lockstep bisection, evaluating every midpoint.

    The levels, sorted by p, double a bracket from [0, 1] and then bisect it
    to ``BRACKET_WIDTH`` together; each step evaluates the transform once
    at every distinct point the levels ask for.  The production solver must
    return exactly these results, with fewer transform calls.
    """
    levels = [float(p) for p in levels]
    order = sorted(range(len(levels)), key=levels.__getitem__)
    target = np.array([math.log(levels[k]) for k in order])
    low = np.zeros(len(levels))
    high = np.ones(len(levels))
    point, doubling = 1.0, len(levels)
    while doubling:
        value = _distinct_log_tails(model, np.array([point]))[0]
        doubling = int(np.count_nonzero(target[:doubling] < value))
        if doubling and point == _R_MAX:
            raise BracketError("no bracket below log(DBL_MAX)")
        low[:doubling] = point
        point = min(2.0 * point, _R_MAX)
        high[:doubling] = point
    results: list[QuantileResult | None] = [None] * len(levels)
    live = order
    step = 0
    while live:
        mid = 0.5 * (low + high)
        value = _distinct_log_tails(model, mid)
        narrowing = high - low > BRACKET_WIDTH
        for k in np.flatnonzero(~narrowing).tolist():
            results[live[k]] = QuantileResult(
                p=levels[live[k]], r=float(mid[k]), bracket=(float(low[k]), float(high[k])),
                residual=float(value[k] - target[k]), iterations=step)
        live = [i for i, keep in zip(live, narrowing.tolist()) if keep]
        low, high, target, mid, value = (a[narrowing] for a in (low, high, target, mid, value))
        right = value > target
        low = np.where(right, mid, low)
        high = np.where(right, high, mid)
        step += 1
    return results


def _distinct_log_tails(model, r: np.ndarray) -> np.ndarray:
    """log L(e^r - 1) at each element of r, evaluating each run of equal elements once."""
    first = np.empty(r.size, dtype=bool)
    first[0] = True
    np.not_equal(r[1:], r[:-1], out=first[1:])
    rho = np.array([math.expm1(x) for x in r[first].tolist()])
    return model._log_laplace_values(rho)[np.cumsum(first) - 1]


def csv_table_text(columns, records) -> str:
    """``table_text(columns, records, "csv")`` through ``csv.writer``.

    Every float, numpy's float64 included, goes through ``real_text``; any
    other field is the csv module's to write and quote.  Each line is
    written with the terminator \r\n, so that a field holding a lone \r
    is quoted and reads back, and then ends in \n.
    """
    lines = []
    for record in (columns, *records):
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(
            [real_text(x) if isinstance(x, float) else x for x in record])
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)
