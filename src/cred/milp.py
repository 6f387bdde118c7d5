"""Bounded-variable dual simplex.

Sized for desk-scale dispatch instances: the storage horizon's LP (tens of
variables per period) and the droop search's cell LPs (one variable per
attacked area).  Bounds enter the ratio tests, not the tableau.  A
LinearProgram's objective is bounded below on its variable bounds, so the
slack basis prices every LP and the dual simplex from it alone solves it:
no LP is unbounded.  The dual simplex falls back to Bland's rule after a
degenerate stall, so it does not cycle, and results are reproducible.  An
external solver can be substituted behind the same solve_lp contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BuildError, NumericalError

__all__ = [
    "LinearProgram",
    "SolveResult",
    "solve_lp",
]

RELATIONS = ("<=", "=", ">=")

_PIVOT_TOL = 1e-9
_ZERO_TOL = 1e-12
#: largest bound or row violation a returned optimum may carry; a larger
#: one means the tableau drifted from B^-1 (tiny pivots, a near-singular
#: basis), and the point is not a solution
_RESIDUAL_TOL = 1e-7
#: bounds of the slack s in lhs x + s = rhs, per relation
_SLACK_BOUNDS = {"<=": (0.0, np.inf), "=": (0.0, 0.0), ">=": (-np.inf, 0.0)}


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ x subject to lhs x (<=,=,>=) rhs and box bounds."""

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple
    rhs: np.ndarray
    #: (n, 2), a lower bound of -inf and an upper bound of +inf allowed, but a
    #: variable with a positive (negative) cost needs a finite lower (upper)
    #: bound; zero-cost variables may be free
    bounds: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.lhs, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float)
        n = c.size
        m = len(self.relations)
        if a.shape != (m, n) or b.shape != (m,) or bounds.shape != (n, 2):
            raise BuildError(
                f"inconsistent LP dimensions: c{c.shape}, A{a.shape}, b{b.shape}, bounds{bounds.shape}"
            )
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise BuildError("LP objective, matrix or right-hand sides not finite")
        if np.isnan(bounds).any():
            raise BuildError("LP bounds contain NaN")
        rels = tuple(self.relations)
        for r in rels:
            if r not in RELATIONS:
                raise BuildError(f"unknown relation {r!r}")
        if (bounds[:, 0] > bounds[:, 1]).any():
            raise BuildError("variable with lower bound above upper bound")
        # a lower bound of +inf or an upper bound of -inf admits no real value
        if (bounds[:, 0] == np.inf).any() or (bounds[:, 1] == -np.inf).any():
            raise BuildError("variable bound admits no finite value ([inf, inf] or [-inf, -inf])")
        # with a finite bound in each cost's direction, objective @ x is
        # bounded below on the bounds alone, the slack basis is dual
        # feasible, and by weak duality the LP is not unbounded
        loose = ((c > 0.0) & np.isinf(bounds[:, 0])) | ((c < 0.0) & np.isinf(bounds[:, 1]))
        if loose.any():
            raise BuildError(
                f"objective unbounded below: variables {np.flatnonzero(loose).tolist()} "
                "have no finite bound in their cost's direction"
            )
        for arr in (c, a, b, bounds):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return len(self.relations)

    # credbench/tracing.py sizes a dispatch build by program.base and
    # program.binary_vars: an LP is its own base and has no binaries
    @property
    def base(self) -> LinearProgram:
        return self

    @property
    def binary_vars(self) -> tuple:
        return ()


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | iteration_limit
    values: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _IterationLimit(Exception):
    pass


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step on (row, col), updating only the rows it changes.

    A row whose pivot-column entry is zero would change by an exact zero,
    so skipping it gives the dense update bit for bit; dispatch tableaux
    are mostly zero, and a day-long horizon's pivot touches a few dozen of
    its 289 rows.
    """
    tableau[row] /= tableau[row, col]
    colvals = tableau[:, col].copy()
    colvals[row] = 0.0
    rows = np.flatnonzero(colvals)
    tableau[rows] -= np.outer(colvals[rows], tableau[row])
    basis[row] = col


#: consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 40


def _dual_simplex(tab, basis, x, lo, hi, d, budget):
    """Restore primal feasibility from a dual feasible basis, in place.

    d holds every column's reduced cost, with each nonbasic column at the
    bound its sign prefers (lower for d > 0, upper for d < 0).  A step
    takes the basic value farthest outside its bounds out to that bound;
    the entering column is the one whose reduced cost reaches zero first
    as the row's dual moves (the ratio test on reduced costs, ties to the
    largest pivot), so every reduced cost keeps its sign.  d, x and tab are
    updated per step, never recomputed.  Returns (feasible, steps):
    feasible is False when the leaving row has no entering column, a dual
    ray that proves the LP infeasible.  Raises _IterationLimit past budget
    steps.
    """
    nonbasic = np.ones(tab.shape[1], dtype=bool)
    nonbasic[basis] = False
    steps = stall = 0
    bland = False
    while True:
        xb = x[basis]
        short = np.maximum(lo[basis] - xb, xb - hi[basis])
        if short.max(initial=0.0) <= _PIVOT_TOL:
            return True, steps
        r = int(np.argmax(short))
        if steps == budget:
            raise _IterationLimit()
        steps += 1
        if bland:  # smallest basic index among the infeasible rows
            bad = np.flatnonzero(short > _PIVOT_TOL)
            r = int(bad[np.argmin(basis[bad])])
        target = lo[basis[r]] if xb[r] < lo[basis[r]] else hi[basis[r]]
        alpha = tab[r]
        # x_r = beta_r - alpha @ x_N moves toward target when column j moves
        # against sign((xb[r] - target) * alpha_j) and its bounds allow that
        up = (xb[r] - target) * alpha > 0.0  # j must increase
        free = np.where(up, x < hi, x > lo)
        eligible = nonbasic & free & (np.abs(alpha) > _PIVOT_TOL)
        if not eligible.any():
            return False, steps
        ratio = np.full(alpha.size, np.inf)
        ratio[eligible] = np.abs(d[eligible]) / np.abs(alpha[eligible])
        best = ratio.min()
        ties = np.flatnonzero(ratio <= best + 1e-12)
        e = int(ties[0] if bland else ties[np.argmax(np.abs(alpha[ties]))])
        theta_d = d[e] / alpha[e]
        theta_p = (xb[r] - target) / alpha[e]
        d -= theta_d * alpha
        d[e] = 0.0
        x[basis] = xb - theta_p * tab[:, e]
        x[e] += theta_p
        out = basis[r]
        x[out] = target
        _pivot(tab, basis, r, e)
        nonbasic[e], nonbasic[out] = False, True
        if not bland:
            stall = stall + 1 if abs(theta_d) <= 1e-12 else 0
            bland = stall > _STALL_LIMIT


def _basic_values(tab, basis, x, a, b) -> None:
    """Set x's basic entries to B^-1 (b - N x_N); tab's slack block is B^-1."""
    x[basis] = 0.0
    x[basis] = tab[:, a.shape[1] - a.shape[0]:] @ (b - a @ x)


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> SolveResult:
    """Bounded-variable dual simplex (Chvatal, Linear Programming, 1983, ch. 10).

    Columns are the variables and one slack per row, lhs x + s = rhs, with
    s in [0, inf) for <=, (-inf, 0] for >= and [0, 0] for =.  The solve
    has one start, the dual simplex (Koberstein, The Dual Simplex Method,
    2005) from the slack basis.  Its reduced costs are the costs, and each
    nonbasic column sits at the bound its cost prefers, which is finite
    because the LinearProgram contract bounds each costed variable in its
    cost's direction; costless columns sit at a finite bound, else at 0.

    Returns an optimal basic solution (values within their bounds
    exactly), infeasible (a dual ray), or iteration_limit when more than
    max_iter dual steps are needed.  Raises NumericalError when the final
    basic values, recomputed from the tableau, leave a bound or a row
    violated by more than _RESIDUAL_TOL.
    """
    n, m = lp.n_vars, lp.n_rows
    a = np.hstack([lp.lhs, np.eye(m)])
    slack = np.array([_SLACK_BOUNDS[r] for r in lp.relations]).reshape(m, 2)
    lo = np.concatenate([lp.bounds[:, 0], slack[:, 0]])
    hi = np.concatenate([lp.bounds[:, 1], slack[:, 1]])
    d = np.concatenate([lp.objective, np.zeros(m)])
    x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    below = d < -_PIVOT_TOL
    x[below] = hi[below]
    if max_iter is None:
        max_iter = 2000 + 200 * (m + a.shape[1])
    tab, rows = a.copy(), np.arange(n, n + m)
    _basic_values(tab, rows, x, a, lp.rhs)
    try:
        feasible, steps = _dual_simplex(tab, rows, x, lo, hi, d, max_iter)
    except _IterationLimit:
        return SolveResult("iteration_limit", iterations=max_iter)
    if not feasible:
        return SolveResult("infeasible", iterations=steps)

    _basic_values(tab, rows, x, a, lp.rhs)
    miss = max(np.max(lo - x), np.max(x - hi), np.max(np.abs(a @ x - lp.rhs), initial=0.0))
    if miss > _RESIDUAL_TOL:
        raise NumericalError(f"dual simplex ended {miss:.3g} outside a bound or row; "
                             "the tableau drifted from the basis inverse")
    # round-off leaves basic values like +-1e-15 off their bound; callers
    # read values as exact (a droop of -1e-15 is rejected downstream)
    for bound in (lo, hi):
        near = np.abs(x - bound) < _ZERO_TOL
        x[near] = bound[near]
    x = np.clip(x, lo, hi)
    values = x[:n]
    values.setflags(write=False)
    return SolveResult("optimal", values=values, objective_value=float(lp.objective @ values),
                       iterations=steps)


def solve_milp(*_args, **_kwargs):
    """Branch-and-bound is removed; this name stays for credbench/tracing.py.

    The tracer binds a probe to cred.milp.solve_milp.  Nothing calls it, so
    the probe's span and node counter read zero; the droop search's LPs
    show under solve_lp.
    """
    raise NotImplementedError("branch-and-bound is removed: the droop search "
                              "(StabilityConstraintSet.net_gain_max) solves LPs only")
