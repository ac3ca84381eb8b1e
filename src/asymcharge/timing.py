"""Transmission time allocation: minimum total time meeting every demand.

The program is min 1't subject to coverage * t >= demand, t >= 0.  Every cost
is 1 and the coverage is nonnegative, so the basis of the surplus variables
is dual feasible from the start, and a dense dual simplex from that basis
solves the program without a phase 1.  The most negative rhs leaves, the
smallest ratio enters with ties to the smallest column, and a Bland fallback
for dual-degenerate stalls keeps the pivot sequence deterministic.

Each pivot is a rank-one update of the tableau, reduced-cost row included.
Only the rows where the entering column is nonzero change, and the covering
matrix is very sparse, so the update runs row by row over those rows alone,
in place.

``solve_lp`` returns an optimal solution or raises: ``InfeasibleError`` when
the simplex finds no entering column for an unmet demand row, and
``PivotLimitError`` when it runs out of pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, PivotLimitError, ValidationError
from .directions import CoefficientMatrix
from .model import NetworkInstance

_EPS = 1e-9
_MAX_PIVOTS = 20000
_STALL_LIMIT = 60  # pivots without dual progress before switching to Bland's rule


@dataclass(frozen=True)
class LpProblem:
    """min 1't  s.t.  a @ t >= b, t >= 0."""

    a: np.ndarray  # (n_constraints, n_variables), nonnegative
    b: np.ndarray  # (n_constraints,), nonnegative


@dataclass(frozen=True)
class LpSolution:
    """An optimal solution; a program without one raises instead."""

    t: np.ndarray
    objective: float


def build_time_lp(matrix: CoefficientMatrix, instance: NetworkInstance) -> LpProblem:
    """One covering constraint per node: received energy must meet its demand.

    A node with a demand and no positive coefficient makes the program
    infeasible; the lowest such node id is named.
    """
    demand = instance.e_d
    a = instance.dmc.p0 * matrix.entries.T  # (N, K)
    uncovered = np.flatnonzero((demand > 0) & ~(a > 0.0).any(axis=1))
    if uncovered.size:
        u = int(uncovered[0])
        raise InfeasibleError(f"node {u} demands {demand[u].item()} J but is covered by no pair")
    return LpProblem(a=a, b=demand)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Optimal transmission times for a well-formed covering program.

    Variables whose constraint column is all-zero cannot help any node and
    are fixed at zero before solving.  A program the simplex finds no
    optimum for raises ``InfeasibleError``, so a solution it returns is
    optimal.
    """
    a = np.asarray(problem.a, dtype=float)
    b = np.asarray(problem.b, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValidationError("constraint matrix and demand vector shapes disagree")
    if np.any(b < 0):
        raise ValidationError("demands must be nonnegative")

    k_all = a.shape[1]
    useful = np.flatnonzero(np.any(a > 0.0, axis=0))
    t_full = np.zeros(k_all)
    rows = np.flatnonzero(b > 0.0)  # zero-demand rows are satisfied by t = 0
    if rows.size == 0:
        return LpSolution(t=t_full, objective=0.0)

    x = _simplex_min(a[np.ix_(rows, useful)], b[rows])
    x[(x < 0.0) & (x > -1e-12)] = 0.0
    t_full[useful] = x
    return LpSolution(t=t_full, objective=float(t_full.sum()))


def _simplex_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual simplex for min 1'x, a x >= b, x >= 0 (a, b >= 0).

    The tableau rows are ``[-a | I | -b]`` with the surplus variables basic,
    and the last row holds the reduced costs ``[1 | 0 | -objective]``.  Every
    cost is 1 and ``a >= 0``, so that basis is dual feasible from the start:
    no phase 1 and no artificial columns.  Each pivot raises the dual
    objective (or keeps it) until no rhs is negative.  A row with a negative
    rhs and no entry below ``-_EPS`` raises ``InfeasibleError``.
    """
    m, n = a.shape
    # columns: n structural | m surplus | rhs; the last row holds the reduced costs
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = -a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = -b
    tab[m, :n] = 1.0
    basis = list(range(n, n + m))

    stall = 0
    bland = False
    last_obj = -np.inf
    for _ in range(_MAX_PIVOTS):
        rhs = tab[:m, -1]
        if bland:
            leaving = np.flatnonzero(rhs < -_EPS)
            if leaving.size == 0:
                break
            row = int(min(leaving, key=lambda r: basis[r]))
        else:
            row = int(np.argmin(rhs))
            if rhs[row] >= -_EPS:
                break
        entries = tab[row, :-1]
        candidates = np.flatnonzero(entries < -_EPS)
        if candidates.size == 0:
            # the row reads x_B = rhs - sum(entry * x) with rhs < 0 and no
            # entry below -_EPS, so no column can enter at that tolerance
            raise InfeasibleError(
                f"the simplex found no entering column at its tolerance {_EPS:g}:"
                " an unmet demand row has no coefficient large enough to pivot on"
            )
        ratios = np.maximum(tab[m, candidates], 0.0) / -entries[candidates]
        best = ratios.min()
        col = int(candidates[np.argmax(ratios <= best + _EPS * (1.0 + best))])

        _pivot(tab, basis, row, col)

        obj = -float(tab[m, -1])
        if obj > last_obj + _EPS:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_obj = obj
    else:
        raise PivotLimitError(f"simplex pivot limit ({_MAX_PIVOTS}) exceeded")

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tab[row, -1]
    return x


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: scale the row, eliminate it elsewhere."""
    tab[row] /= tab[row, col]
    pivot_row = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    for r in np.flatnonzero(factors):
        tab[r] -= factors[r] * pivot_row
    basis[row] = col
