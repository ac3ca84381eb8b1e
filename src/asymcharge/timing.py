"""Transmission time allocation: minimum total time meeting every demand.

The program is min 1't subject to coverage * t >= demand, t >= 0.  It is
solved with a dense two-phase simplex; Dantzig pricing with a Bland
anti-cycling fallback keeps the pivot sequence deterministic.

Each pivot is a rank-one update of the tableau.  Only the rows where the
entering column is nonzero change, and the covering matrix is very sparse,
so the update runs row by row over those rows alone, in place.  Each row gets
the same products and differences as a whole-tableau update, so the pivots
and the solution are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, PivotLimitError, ValidationError
from .directions import CoefficientMatrix
from .model import NetworkInstance

_EPS = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 20000
_STALL_LIMIT = 60  # degenerate pivots before switching to Bland's rule


@dataclass(frozen=True)
class LpProblem:
    """min 1't  s.t.  a @ t >= b, t >= 0."""

    a: np.ndarray  # (n_constraints, n_vars), nonnegative
    b: np.ndarray  # (n_constraints,), nonnegative

    @property
    def n_vars(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class LpSolution:
    t: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible"


def build_time_lp(matrix: CoefficientMatrix, instance: NetworkInstance) -> LpProblem:
    """One covering constraint per node: received energy must meet its demand."""
    demand = instance.e_d_vector()
    a = instance.dmc.p0 * matrix.entries.T  # (N, K)
    for u in instance.nodes:
        if u.e_d > 0 and not np.any(a[u.id] > 0.0):
            raise InfeasibleError(f"node {u.id} demands {u.e_d} J but is covered by no pair")
    return LpProblem(a=a, b=demand)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Optimal transmission times for a well-formed covering program.

    Variables whose constraint column is all-zero cannot help any node and
    are fixed at zero before solving.
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
        return LpSolution(t=t_full, objective=0.0, status="optimal")
    if useful.size == 0:
        return LpSolution(t=t_full, objective=0.0, status="infeasible")

    x, status = _simplex_min(a[np.ix_(rows, useful)], b[rows])
    if status != "optimal":
        return LpSolution(t=t_full, objective=0.0, status=status)
    x[(x < 0.0) & (x > -1e-12)] = 0.0
    t_full[useful] = x
    return LpSolution(t=t_full, objective=float(t_full.sum()), status="optimal")


def _simplex_min(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, str]:
    """Two-phase tableau simplex for min 1'x, a x >= b, x >= 0 (a, b >= 0)."""
    m, n = a.shape
    # columns: n structural | m surplus | m artificial | rhs
    tab = np.zeros((m, n + 2 * m + 1))
    tab[:, :n] = a
    tab[:, n : n + m] = -np.eye(m)
    tab[:, n + m : n + 2 * m] = np.eye(m)
    tab[:, -1] = b
    basis = list(range(n + m, n + 2 * m))

    cost1 = np.zeros(n + 2 * m)
    cost1[n + m :] = 1.0
    if not _run_simplex(tab, basis, cost1, allowed=n + 2 * m):
        raise PivotLimitError(f"simplex pivot limit ({_MAX_PIVOTS}) exceeded in phase 1")
    if float(tab[:, -1] @ cost1[basis]) > _FEAS_TOL:
        return np.zeros(n), "infeasible"
    _drive_out_artificials(tab, basis, n + m)

    cost2 = np.zeros(n + 2 * m)
    cost2[:n] = 1.0
    if not _run_simplex(tab, basis, cost2, allowed=n + m):
        raise PivotLimitError(f"simplex pivot limit ({_MAX_PIVOTS}) exceeded in phase 2")

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tab[row, -1]
    return x, "optimal"


def _run_simplex(tab: np.ndarray, basis: list[int], cost: np.ndarray, allowed: int) -> bool:
    """Pivot to optimality in place; returns False only on a pivot-limit stall."""
    m = tab.shape[0]
    stall = 0
    bland = False
    last_obj = np.inf
    for _ in range(_MAX_PIVOTS):
        reduced = cost[:allowed] - cost[basis] @ tab[:, :allowed]
        if bland:
            entering_candidates = np.flatnonzero(reduced < -_EPS)
            if entering_candidates.size == 0:
                return True
            col = int(entering_candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -_EPS:
                return True
        column = tab[:, col]
        positive = column > _EPS
        if not np.any(positive):
            # unbounded direction: impossible for these programs (cost >= 0,
            # feasible region in the positive orthant), treat as failure
            return False
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(tab[positive, -1], 0.0) / column[positive]
        best = ratios.min()
        tie_rows = np.flatnonzero(ratios <= best + _EPS * (1.0 + best))
        row = int(min(tie_rows, key=lambda r: basis[r]))

        _pivot(tab, basis, row, col)

        obj = float(cost[basis] @ tab[:, -1])
        if obj < last_obj - _EPS:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_obj = obj
    return False


def _drive_out_artificials(tab: np.ndarray, basis: list[int], n_real: int) -> None:
    """Pivot zero-level artificial variables out of the basis where possible."""
    for row, var in enumerate(basis):
        if var < n_real:
            continue
        candidates = np.flatnonzero(np.abs(tab[row, :n_real]) > _EPS)
        if candidates.size == 0:
            continue  # redundant constraint; the artificial stays at level 0
        _pivot(tab, basis, row, int(candidates[0]))


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: scale the row, eliminate it elsewhere."""
    tab[row] /= tab[row, col]
    pivot_row = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    for r in np.flatnonzero(factors):
        tab[r] -= factors[r] * pivot_row
    basis[row] = col
