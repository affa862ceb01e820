"""Two-phase Simplex oracle for the discrete max-PER program.

Independent of the envelope construction in ``lumenkit.maxper``: it poses
the program over the CMF columns as an equality-form LP,

    maximize   sum_i P_i * (K_m ybar_i)
    subject to dlam * sum_i P_i = 1
               sum_i P_i [x_c (xbar_i + ybar_i + zbar_i) - xbar_i] = 0
               sum_i P_i [y_c (xbar_i + ybar_i + zbar_i) - ybar_i] = 0
               P_i >= 0

and solves it by pivoting a dense tableau with Bland's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from simpson_oracle import NonConvergenceError

from lumenkit import DomainError, LpSolution
from lumenkit.maxper import SUPPORT_RTOL

# Phase-1 objective below this (on max-norm-equilibrated rows) means
# the constraints are satisfiable.
FEASIBILITY_TOL = 1e-9

_PIVOT_TOL = 1e-11
_REDUCED_COST_TOL = 1e-11


@dataclass(frozen=True)
class LpProblem:
    """Equality-form LP: maximize c . P, A P = b, P >= 0."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    wavelengths_nm: np.ndarray
    delta_lambda_nm: float
    km: float

    def __post_init__(self):
        if self.a.shape != (3, len(self.c)):
            raise DomainError(f"constraint matrix must be 3 x N, got {self.a.shape}")
        if len(self.c) < 4:
            raise DomainError(f"need at least 4 wavelengths, got {len(self.c)}")


def build_problem(target, cmf, km: float, delta_lambda_nm: float | None = None) -> LpProblem:
    """Assemble the discrete max-PER program for ``target``.

    ``delta_lambda_nm`` defaults to the CMF grid spacing and must be a
    positive multiple of it (columns are taken at that stride).
    """
    spacing = cmf.spacing_nm
    if delta_lambda_nm is None:
        delta_lambda_nm = spacing
    stride_f = delta_lambda_nm / spacing
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-9:
        raise DomainError(
            f"delta lambda {delta_lambda_nm} nm does not match the {spacing} nm table grid"
        )
    wl = cmf.wavelengths_nm[::stride]
    xb = cmf.xbar[::stride]
    yb = cmf.ybar[::stride]
    zb = cmf.zbar[::stride]
    if len(wl) < 4:
        raise DomainError(f"delta lambda {delta_lambda_nm} nm leaves fewer than 4 columns")
    s = xb + yb + zb
    a = np.vstack([
        np.full(len(wl), delta_lambda_nm),
        target.x * s - xb,
        target.y * s - yb,
    ])
    b = np.array([1.0, 0.0, 0.0])
    return LpProblem(c=km * yb, a=a, b=b, wavelengths_nm=wl,
                     delta_lambda_nm=float(delta_lambda_nm), km=km)


def simplex_solve(problem: LpProblem) -> LpSolution:
    """Solve the program by two-phase Simplex with Bland's rule.

    Rows are rescaled to unit max-norm before pivoting.  Raises
    :class:`NonConvergenceError` after 50 N pivots (numerical cycling);
    Bland's rule makes genuine cycling impossible.
    """
    c = np.asarray(problem.c, dtype=float)
    a = np.asarray(problem.a, dtype=float).copy()
    b = np.asarray(problem.b, dtype=float).copy()
    m, n = a.shape

    row_scale = np.max(np.abs(a), axis=1)
    row_scale[row_scale == 0.0] = 1.0
    a /= row_scale[:, None]
    b /= row_scale
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    budget = _PivotBudget(50 * n)

    # Phase 1: artificial basis, drive sum of artificials to zero.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -a.sum(axis=0)
    tab[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    status = _pivot_until_optimal(tab, basis, n, budget)
    if status != "optimal":
        return LpSolution(status=status, objective_value=None, support=())
    if -tab[m, -1] > FEASIBILITY_TOL:
        return LpSolution(status="infeasible", objective_value=None, support=())

    keep = _drive_out_artificials(tab, basis, n)
    rows = [i for i in range(m) if keep[i]]

    # Phase 2: restore the true objective over the structural columns.
    m2 = len(rows)
    tab2 = np.zeros((m2 + 1, n + 1))
    tab2[:m2, :n] = tab[rows, :n]
    tab2[:m2, -1] = tab[rows, -1]
    basis2 = [basis[i] for i in rows]
    tab2[m2, :n] = -c
    for i, var in enumerate(basis2):
        if c[var] != 0.0:
            tab2[m2, :] += c[var] * tab2[i, :]
    status = _pivot_until_optimal(tab2, basis2, n, budget)
    if status != "optimal":
        return LpSolution(status=status, objective_value=None, support=())

    x = np.zeros(n)
    for i, var in enumerate(basis2):
        x[var] = max(tab2[i, -1], 0.0)
    objective = problem.delta_lambda_nm * float(c @ x)
    peak = float(x.max())
    support = tuple(
        (float(problem.wavelengths_nm[j]), float(x[j]))
        for j in range(n)
        if x[j] > SUPPORT_RTOL * peak
    )
    return LpSolution(status="optimal", objective_value=objective, support=support)


class _PivotBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise NonConvergenceError(
                f"simplex exceeded {self.limit} pivots; numerical cycling suspected"
            )


def _pivot_until_optimal(tab, basis, n_structural, budget) -> str:
    """Bland-rule pivoting on a maximization tableau until no reduced
    cost improves; returns 'optimal' or 'unbounded'."""
    m = tab.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_structural):
            if tab[m, j] < -_REDUCED_COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = (np.inf, np.inf)
        for i in range(m):
            coef = tab[i, enter]
            if coef > _PIVOT_TOL:
                ratio = max(tab[i, -1], 0.0) / coef
                key = (ratio, basis[i])  # Bland tie-break: lowest variable
                if key < best:
                    best = key
                    leave = i
        if leave < 0:
            return "unbounded"
        budget.spend()
        _pivot(tab, basis, leave, enter)


def _pivot(tab, basis, row, col):
    tab[row, :] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i, :] -= tab[i, col] * tab[row, :]
    basis[row] = col


def _drive_out_artificials(tab, basis, n_structural):
    """Pivot basic artificials onto structural columns where possible;
    rows that cannot be repaired are redundant and get dropped."""
    m = tab.shape[0] - 1
    keep = [True] * m
    for i in range(m):
        if basis[i] < n_structural:
            continue
        pivot_col = -1
        for j in range(n_structural):
            if abs(tab[i, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col < 0:
            keep[i] = False
        else:
            _pivot(tab, basis, i, pivot_col)
    return keep
