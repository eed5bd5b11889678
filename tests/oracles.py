"""Exact assignment oracles that share no code with the production solver.

The brute-force enumerator checks small instances permutation by
permutation; the LP duals certify larger ones by weak duality.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from logassign.matching import Assignment, as_cost_matrix

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
